package emu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/socialtube/socialtube/internal/obs"
)

// endpoint is the package's one TCP server, shared by Peer and Tracker:
// it owns the listener, the accept loop and the whole receive path of a
// connection — deadline, frame read, strict validation, the owner's admit
// check, injected loss and latency, dispatch, and the chaos-aware response
// write — repeated frame after frame until the caller hangs up. Together
// with client below it is the package's entire use of the network.
type endpoint struct {
	// id is the owner's node id in the latency model (-1 for a tracker).
	id   int
	cond *Conditions
	// budget bounds one exchange end to end (read, queueing, write), so a
	// stalled client cannot pin a handler goroutine.
	budget time.Duration
	// ctr is the owner's live counter block (atomic fields).
	ctr *obs.Counters
	// admit reports whether the owner is reachable for req; when false
	// the request goes unanswered and the connection is closed, so the
	// caller reads EOF at once rather than waiting out its timeout — a dark
	// tracker, a crashed or offline peer, a partition.
	admit func(req *Message) bool
	// serve produces the response (nil = no answer).
	serve func(req *Message) *Message

	ln net.Listener
	// wg counts the accept loop, every handler and any goroutine the owner
	// ties to the endpoint's lifetime; done closes on stop.
	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
	// mu guards conns, the connections being served, so stop can cut the
	// ones waiting for their next frame.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newEndpoint(id int, cond *Conditions, budget time.Duration, ctr *obs.Counters,
	admit func(*Message) bool, serve func(*Message) *Message) *endpoint {
	return &endpoint{
		id: id, cond: cond, budget: budget, ctr: ctr,
		admit: admit, serve: serve,
		done: make(chan struct{}), conns: make(map[net.Conn]struct{}),
	}
}

// start binds addr and begins serving. Keep-alive is off: a caller closes
// an idle connection long before a probe could fire.
func (e *endpoint) start(addr string) error {
	ln, err := (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", addr)
	if err != nil {
		return err
	}
	e.ln = ln
	e.wg.Add(1)
	go e.acceptLoop()
	return nil
}

// addr returns the listen address (empty before start).
func (e *endpoint) addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// stop closes the listener, cuts every connection waiting for its next
// frame, and waits for every goroutine counted in wg; an exchange in
// flight finishes first. It is idempotent and safe before start.
func (e *endpoint) stop() {
	e.once.Do(func() {
		e.mu.Lock()
		close(e.done)
		for conn := range e.conns {
			conn.SetReadDeadline(time.Now())
		}
		e.mu.Unlock()
		if e.ln != nil {
			e.ln.Close()
		}
	})
	e.wg.Wait()
}

func (e *endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
				continue
			}
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.handle(conn)
		}()
	}
}

// handle serves conn until the caller hangs up, a request is refused or
// lost, or the endpoint stops. The server never closes an idle connection
// first, so an EOF on a reused connection always means the request was
// refused or lost.
func (e *endpoint) handle(conn net.Conn) {
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
		conn.Close()
	}()
	for n := 0; e.arm(conn); n++ {
		req, err := ReadMessage(conn)
		if err != nil {
			// Between frames, EOF or a reset (a duplicated reply left
			// unread) is the caller hanging up and a deadline is stop.
			if n == 0 || !(errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) ||
				errors.Is(err, os.ErrDeadlineExceeded)) {
				atomic.AddUint64(&e.ctr.FramesMalformed, 1)
			}
			return
		}
		if err := req.Validate(); err != nil {
			atomic.AddUint64(&e.ctr.FramesRejected, 1)
			return
		}
		if !e.admit(req) || e.cond.Drop() {
			return
		}
		time.Sleep(e.cond.Latency(e.id, req.From))
		resp := e.serve(req)
		if resp == nil {
			return
		}
		resp.Seq = req.Seq
		act, stall := e.cond.nextChaos()
		if writeMessageChaos(conn, resp, act, stall, e.ctr) != nil || act == chaosTruncate {
			return
		}
	}
}

// arm sets the deadline for conn's next exchange, unless the endpoint is
// stopping. The wait for the frame gets idleTTL on top of the budget, so a
// caller that reuses the connection within idleTTL never finds it closed.
func (e *endpoint) arm(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.done:
		return false
	default:
	}
	e.conns[conn] = struct{}{}
	return conn.SetDeadline(time.Now().Add(idleTTL+e.budget)) == nil
}

// idleTTL is how long a node keeps an idle connection open for reuse, long
// enough for NetTube's 2-hop forwards and short of a churning peer's 50–100
// ms replica gaps (DESIGN.md §11).
const idleTTL = 30 * time.Millisecond

// client is one node's outgoing side: its open connections, keyed by
// destination address, never shared with another node. The caller owns a
// connection's lifetime: it reuses one only within idleTTL of its last
// exchange, closes it from a timer armed only while idle connections
// exist or after any failed exchange (a lost request is never re-sent),
// and closes them all on closeAll.
type client struct {
	// timeout bounds one exchange, dial included.
	timeout time.Duration

	mu   sync.Mutex
	idle map[string][]*clientConn // per address, oldest first
	reap *time.Timer
}

// clientConn is one open connection and the number of its last exchange.
type clientConn struct {
	net.Conn
	seq  uint64
	last time.Time
}

// rpc sends req to addr on the newest idle connection (or a fresh one,
// keep-alive off), stamped with the connection's next exchange number, and
// waits out the client's timeout for the reply echoing it: a reply left
// from an earlier exchange (a duplicated frame) is skipped. Replies are
// validated like requests, so a corrupted or hostile one is an error.
func (c *client) rpc(addr string, req *Message) (*Message, error) {
	c.mu.Lock()
	var cn *clientConn
	if cs := c.idle[addr]; len(cs) > 0 {
		cn, c.idle[addr] = cs[len(cs)-1], cs[:len(cs)-1]
	}
	c.mu.Unlock()
	if cn != nil && time.Since(cn.last) >= idleTTL { // the timer is late
		cn.Close()
		cn = nil
	}
	if cn == nil {
		conn, err := (&net.Dialer{Timeout: c.timeout, KeepAlive: -1}).Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cn = &clientConn{Conn: conn}
	}
	resp, err := cn.exchange(req, c.timeout)
	if err != nil {
		cn.Close()
		return nil, fmt.Errorf("rpc %s to %s: %w", req.Type, addr, err)
	}
	cn.last = time.Now()
	c.mu.Lock()
	if c.idle == nil {
		c.idle = make(map[string][]*clientConn)
	}
	c.idle[addr] = append(c.idle[addr], cn)
	if c.reap == nil {
		c.reap = time.AfterFunc(idleTTL, func() { c.sweep(idleTTL) })
	}
	c.mu.Unlock()
	return resp, nil
}

// exchange runs cn's next numbered exchange, bounded by timeout.
func (cn *clientConn) exchange(req *Message, timeout time.Duration) (*Message, error) {
	if err := cn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	cn.seq++
	req.Seq = cn.seq
	if err := WriteMessage(cn, req); err != nil {
		return nil, err
	}
	resp, err := ReadMessage(cn)
	for err == nil && resp.Seq < cn.seq {
		resp, err = ReadMessage(cn)
	}
	if err != nil {
		return nil, err
	}
	if resp.Seq != cn.seq {
		return nil, fmt.Errorf("%w: reply %d to exchange %d", ErrInvalidMessage, resp.Seq, cn.seq)
	}
	return resp, resp.Validate()
}

// sweep closes every connection idle for at least age, then re-arms the
// timer for the next one due or disarms it. The timer sweeps idleTTL.
func (c *client) sweep(age time.Duration) {
	now := time.Now()
	var stale []*clientConn
	next := time.Duration(0)
	c.mu.Lock()
	for addr, cs := range c.idle {
		i := 0
		for i < len(cs) && now.Sub(cs[i].last) >= age {
			i++
		}
		stale, c.idle[addr] = append(stale, cs[:i]...), cs[i:]
		if i < len(cs) && (next == 0 || age-now.Sub(cs[i].last) < next) {
			next = age - now.Sub(cs[i].last)
		}
	}
	if next > 0 {
		c.reap.Reset(next)
	} else {
		if c.reap != nil {
			c.reap.Stop()
		}
		c.idle, c.reap = nil, nil
	}
	c.mu.Unlock()
	for _, cn := range stale {
		cn.Close()
	}
}

// closeAll closes every idle connection: a stopped or restarted node
// holds no sockets.
func (c *client) closeAll() { c.sweep(0) }
