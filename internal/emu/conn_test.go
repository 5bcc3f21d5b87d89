package emu

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
)

// rpc runs one exchange through a node's client, as a fresh caller that
// hangs up right after the reply.
func rpc(addr string, req *Message, timeout time.Duration) (*Message, error) {
	c := client{timeout: timeout}
	defer c.closeAll()
	return c.rpc(addr, req)
}

// idleConns snapshots every idle connection c holds.
func idleConns(c *client) []*clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*clientConn
	for _, cs := range c.idle {
		out = append(out, cs...)
	}
	return out
}

// serving lists the remote addresses of the connections e is serving.
func serving(e *endpoint) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for conn := range e.conns {
		out = append(out, conn.RemoteAddr().String())
	}
	return out
}

// TestClientReusesOneConnection: a peer's sequential tracker RPCs, its
// registration included, ride one accepted connection.
func TestClientReusesOneConnection(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	p := startPeer(t, tr, tk, 0, ModeSocialTube, nil)
	ch := int(tr.Channels[0].ID)
	var first string
	for i := 0; i < 20; i++ {
		if _, err := p.trackerRPC(int64(ch), &Message{Type: MsgTopList, From: 0, Channel: ch, TTL: 1}); err != nil {
			t.Fatal(err)
		}
		conns := serving(tk.ep)
		if len(conns) != 1 {
			t.Fatalf("RPC %d: tracker serves %d connections, want 1", i, len(conns))
		}
		if first == "" {
			first = conns[0]
		} else if conns[0] != first {
			t.Fatalf("RPC %d arrived on %s, want the first RPC's %s", i, conns[0], first)
		}
	}
}

// TestReusedConnectionSkipsDuplicatedReply: a duplicated reply left on a
// connection is never read as the answer to the next request — each of
// ten later chunk requests gets the reply carrying its own chunk — and a
// caller hanging up with one still unread is not a malformed frame.
func TestReusedConnectionSkipsDuplicatedReply(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	cond := &Conditions{Seed: 7}
	p := startPeerCfg(t, tr, tk, 1, ModeSocialTube, cond, func(c *PeerConfig) { c.UplinkBps = 1 << 40 })
	v := int(tr.Videos[0].ID)
	p.SeedCache(tr.Videos[0].ID)
	c := client{timeout: time.Second}
	defer c.closeAll()

	cond.Apply(faults.Event{Kind: faults.KindChaosStart, DuplicateP: 1})
	if resp, err := c.rpc(p.Addr(), &Message{Type: MsgChunkReq, From: 0, Video: v}); err != nil || resp.Chunk != 0 {
		t.Fatalf("duplicated reply: %+v %v", resp, err)
	}
	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	if got := p.Counters().ChaosDuplicated; got != 1 {
		t.Fatalf("ChaosDuplicated = %d, want 1", got)
	}
	conns := idleConns(&c)
	for i := 1; i <= 10; i++ {
		resp, err := c.rpc(p.Addr(), &Message{Type: MsgChunkReq, From: 0, Video: v, Chunk: i})
		if err != nil || resp.Chunk != i {
			t.Fatalf("request for chunk %d got %+v %v", i, resp, err)
		}
	}
	if now := idleConns(&c); len(conns) != 1 || len(now) != 1 || now[0] != conns[0] {
		t.Fatal("the requests did not share one connection")
	}

	// The last reply is duplicated too; hanging up with the copy unread
	// resets the connection, which ends it like EOF.
	cond.Apply(faults.Event{Kind: faults.KindChaosStart, DuplicateP: 1})
	if _, err := c.rpc(p.Addr(), &Message{Type: MsgProbe, From: 0}); err != nil {
		t.Fatal(err)
	}
	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	local := conns[0].LocalAddr().String()
	c.closeAll()
	for deadline := time.Now().Add(2 * time.Second); slices.Contains(serving(p.ep), local); {
		if time.Now().After(deadline) {
			t.Fatal("the endpoint kept serving a closed connection")
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Counters().FramesMalformed; got != 0 {
		t.Fatalf("FramesMalformed = %d after the caller hung up, want 0", got)
	}
}

// TestDroppedRequestOnReusedConnectionFailsFast: a request lost on a
// reused connection fails at once (the endpoint closes, the caller reads
// EOF) and is not re-sent — the loss counter advances by exactly one.
func TestDroppedRequestOnReusedConnectionFailsFast(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	cond := &Conditions{Seed: 7}
	p := startPeerCfg(t, tr, tk, 1, ModeSocialTube, cond, nil)
	c := client{timeout: 3 * time.Second}
	defer c.closeAll()
	probe := &Message{Type: MsgProbe, From: 0}
	if _, err := c.rpc(p.Addr(), probe); err != nil {
		t.Fatal(err)
	}
	if n := len(idleConns(&c)); n != 1 {
		t.Fatalf("%d idle connections after one exchange, want 1", n)
	}

	cond.Apply(faults.Event{Kind: faults.KindBurstStart, LatencyFactor: 1, LossP: 1}) // every request is lost
	defer cond.Apply(faults.Event{Kind: faults.KindBurstEnd})
	before := cond.lossCounter.Load()
	begin := time.Now()
	_, err := c.rpc(p.Addr(), probe)
	if elapsed := time.Since(begin); err == nil || elapsed >= 50*time.Millisecond {
		t.Fatalf("lost request: err %v after %v, want an error in under 50ms", err, elapsed)
	}
	if got := cond.lossCounter.Load() - before; got != 1 {
		t.Fatalf("loss draws = %d, want 1 (a re-send would draw again)", got)
	}
	if n := len(idleConns(&c)); n != 0 {
		t.Fatal("the failed connection went back to the idle set")
	}
}

// TestIdleLifetime pins idleTTL both ways: two exchanges 20 ms apart — past
// a 10 ms lifetime, inside a 30 ms one — ride one connection; once the
// connection has been idle for idleTTL the client has closed it, the
// endpoint no longer serves it, and the next exchange dials anew.
func TestIdleLifetime(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	p := startPeer(t, tr, tk, 1, ModeSocialTube, nil)
	probe := func(c *client) *clientConn {
		t.Helper()
		if _, err := c.rpc(p.Addr(), &Message{Type: MsgProbe, From: 0}); err != nil {
			t.Fatal(err)
		}
		conns := idleConns(c)
		if len(conns) != 1 {
			t.Fatalf("%d idle connections after an exchange, want 1", len(conns))
		}
		return conns[0]
	}
	var c *client
	var first, second *clientConn
	// A loaded host may oversleep the gap; try again rather than judge a
	// gap that was not 20 ms.
	for try := 0; ; try++ {
		c = &client{timeout: time.Second}
		defer c.closeAll()
		first = probe(c)
		begin := time.Now()
		time.Sleep(20 * time.Millisecond)
		if time.Since(begin) < 25*time.Millisecond {
			second = probe(c)
			break
		}
		if try == 4 {
			t.Skip("the host never slept 20 ms within 5 ms")
		}
	}
	if second != first {
		t.Fatal("an exchange 20 ms after the last one dialled a new connection")
	}

	local := first.LocalAddr().String()
	time.Sleep(idleTTL + 10*time.Millisecond)
	for deadline := time.Now().Add(2 * time.Second); len(idleConns(c)) > 0 || slices.Contains(serving(p.ep), local); {
		if time.Now().After(deadline) {
			t.Fatal("2 s past its idle lifetime the connection is still open")
		}
		time.Sleep(time.Millisecond)
	}
	if err := first.SetReadDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("the client did not close the idle connection (%v)", err)
	}
	if third := probe(c); third == first || third.LocalAddr().String() == local {
		t.Fatal("the exchange after the idle lifetime reused the expired connection")
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// waitFDs polls until at most want descriptors are open.
func waitFDs(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); openFDs(t) > want; {
		if time.Now().After(deadline) {
			t.Fatalf("descriptors leaked: %d open, want <= %d", openFDs(t), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopAndRejoinReleaseConnections: Rejoin closes every connection the
// peer held before its crash, idle connections close on their own, and
// Stop returns at once even while a caller keeps a connection open and
// closes every socket itself — after which goroutines and descriptors are
// back at their baseline.
func TestStopAndRejoinReleaseConnections(t *testing.T) {
	tr := emuTrace(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0") // the poller's own descriptors open once
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	tk, err := NewTracker(DefaultTrackerConfig(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	a := newTestPeer(t, DefaultPeerConfig(0, ModeSocialTube), tr, tk.Addr(), nil)
	b := newTestPeer(t, DefaultPeerConfig(1, ModeSocialTube), tr, tk.Addr(), nil)
	for _, p := range []*Peer{a, b} {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	exchange := func() {
		t.Helper()
		for _, x := range []struct {
			from *Peer
			to   string
		}{{a, b.Addr()}, {b, a.Addr()}, {a, tk.Addr()}, {b, tk.Addr()}} {
			if _, err := x.from.cl.rpc(x.to, &Message{Type: MsgProbe, From: x.from.cfg.ID}); err != nil {
				t.Fatal(err)
			}
		}
	}

	exchange()
	held := idleConns(&a.cl)
	a.Crash()
	a.Rejoin()
	for _, cn := range held {
		if err := cn.SetReadDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Rejoin kept a connection opened before the crash (%v)", err)
		}
	}
	// Idle, the three nodes hold their listeners and accept loops only.
	waitFDs(t, fds+3)
	waitGoroutines(t, goroutines+3)

	exchange()
	outside, err := net.DialTimeout("tcp", tk.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer outside.Close()
	outside.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteMessage(outside, &Message{Type: MsgProbe, From: 5, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(outside); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	tk.Stop()
	a.Stop()
	b.Stop()
	if d := time.Since(begin); d >= time.Second {
		t.Fatalf("Stop took %v with idle connections open", d)
	}
	if _, err := ReadMessage(outside); !errors.Is(err, io.EOF) {
		t.Fatalf("held connection after Stop: %v, want EOF", err)
	}
	outside.Close()
	// No waiting: Stop itself closed every socket, idle ones included.
	if n := openFDs(t); n > fds {
		t.Fatalf("%d descriptors open right after Stop, want <= %d", n, fds)
	}
	waitGoroutines(t, goroutines)
}
