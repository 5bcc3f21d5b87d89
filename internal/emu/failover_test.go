package emu

import (
	"net"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// startPeerCfg is startPeer with a config hook, for tests that need tight
// timeouts or retry budgets.
func startPeerCfg(t *testing.T, tr *trace.Trace, tk *Tracker, id int, mode Mode, cond *Conditions, tune func(*PeerConfig)) *Peer {
	t.Helper()
	cfg := DefaultPeerConfig(id, mode)
	if tune != nil {
		tune(&cfg)
	}
	p := newTestPeer(t, cfg, tr, tk.Addr(), cond)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

// TestMidStreamCrashResumesOnSecondCandidate is the PR's headline
// regression test: a provider crashes the moment it has served chunk 0,
// and the requester must resume from the NEXT chunk on the second ranked
// candidate — one completed handoff, no server rescue, no restart. The
// byte accounting proves the resume point: each provider uploads exactly
// one chunk payload and the server uploads nothing.
func TestMidStreamCrashResumesOnSecondCandidate(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	tune := func(c *PeerConfig) {
		c.RPCTimeout = 150 * time.Millisecond
		c.PrefetchCount = 0
	}
	requester := startPeerCfg(t, tr, tk, 0, ModeSocialTube, nil, tune)
	providers := map[int]*Peer{
		1: startPeerCfg(t, tr, tk, 1, ModeSocialTube, nil, tune),
		2: startPeerCfg(t, tr, tk, 2, ModeSocialTube, nil, tune),
	}

	var ch trace.ChannelID
	var v trace.VideoID
	found := false
	for _, c := range tr.Channels {
		if len(c.Videos) > 0 {
			ch, v, found = c.ID, c.Videos[0], true
			break
		}
	}
	if !found {
		t.Fatal("trace has no videos")
	}
	for _, p := range providers {
		p.Subscribe(ch)
		p.SeedCache(v)
		p.JoinChannel(ch)
	}
	requester.Subscribe(ch)
	requester.JoinChannel(ch)
	// White-box: guarantee both providers are inner neighbours so the
	// flood ranks them both, whatever the tracker recommended.
	for id, p := range providers {
		requester.connectTo(PeerInfo{ID: id, Addr: p.Addr(), Channel: int(ch)}, linkInner, int(ch), 0)
	}

	crashed := 0
	requester.SetOnChunk(func(_ trace.VideoID, chunk, provider int) {
		if chunk == 0 && provider > 0 && crashed == 0 {
			crashed = provider
			providers[provider].Crash()
		}
	})

	rec := requester.RequestVideo(v)
	if crashed == 0 {
		t.Fatal("no provider served chunk 0 — staging broken")
	}
	survivor := providers[3-crashed]
	if rec.Source != vod.SourcePeer {
		t.Fatalf("Source = %v, want SourcePeer", rec.Source)
	}
	if rec.ServerRescued || rec.Failed {
		t.Fatalf("rescued=%v failed=%v, want neither", rec.ServerRescued, rec.Failed)
	}
	if rec.HandoffAttempts != 1 || rec.Handoffs != 1 {
		t.Fatalf("handoffs = %d/%d attempts, want 1/1", rec.Handoffs, rec.HandoffAttempts)
	}
	const payload = chunkPayloadBytes
	if got := providers[crashed].ServedBytes(); got != payload {
		t.Fatalf("crashed provider served %d bytes, want exactly one chunk (%d)", got, payload)
	}
	if got := survivor.ServedBytes(); got != payload {
		t.Fatalf("survivor served %d bytes, want exactly one resumed chunk (%d) — a restart would be %d", got, payload, 2*payload)
	}
	if got := tk.ServedBytes(); got != 0 {
		t.Fatalf("server served %d bytes, want 0", got)
	}
	if got := requester.Counters().Handoffs; got != 1 {
		t.Fatalf("peer Handoffs counter = %d, want 1", got)
	}
}

// TestRequeryRunsWhenListEndsInSkippedEntry is the regression test for the
// skipped refill: the candidate list ends in an entry the scan skips (this
// peer itself), its only real provider crashes after chunk 0, and the one
// promised requery must still run — it names a live holder, so the
// download finishes from peers with one handoff and no server rescue. The
// refill check used to sit behind the skip, so such a list fell straight
// through to the server.
func TestRequeryRunsWhenListEndsInSkippedEntry(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	tune := func(c *PeerConfig) {
		c.RPCTimeout = 150 * time.Millisecond
		c.PrefetchCount = 0
	}
	requester := startPeerCfg(t, tr, tk, 0, ModeSocialTube, nil, tune)
	a := startPeerCfg(t, tr, tk, 1, ModeSocialTube, nil, tune)
	c := startPeerCfg(t, tr, tk, 2, ModeSocialTube, nil, tune)
	v := tr.Videos[0].ID
	a.SeedCache(v)
	c.SeedCache(v)
	requester.SetOnChunk(func(_ trace.VideoID, chunk, provider int) {
		if chunk == 0 && provider == 1 {
			a.Crash()
		}
	})

	requeries := 0
	requery := func() []PeerInfo {
		requeries++
		return []PeerInfo{{ID: 2, Addr: c.Addr()}}
	}
	cands := []PeerInfo{{ID: 1, Addr: a.Addr()}, {ID: 0, Addr: requester.Addr()}}
	var rec Record
	if !requester.fetchFromCandidates(v, cands, requery, &rec) {
		t.Fatal("no candidate delivered chunk 0 — staging broken")
	}
	if requeries != 1 {
		t.Fatalf("requery ran %d times, want exactly 1", requeries)
	}
	if rec.Source != vod.SourcePeer || rec.ServerRescued {
		t.Fatalf("Source = %v rescued = %v, want a peer-completed download", rec.Source, rec.ServerRescued)
	}
	if rec.Handoffs != 1 {
		t.Fatalf("Handoffs = %d, want 1", rec.Handoffs)
	}
	if got := tk.ServedBytes(); got != 0 {
		t.Fatalf("server served %d bytes, want 0", got)
	}
}

// TestChaosFrameFaults drives each chaos action through a live peer's
// response path: corruption and truncation must surface as RPC errors
// (never a panic or a dead listener), duplication must stay invisible to
// a one-shot RPC, and every injected fault must be accounted.
func TestChaosFrameFaults(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	cond := &Conditions{Seed: 7}
	p := startPeerCfg(t, tr, tk, 1, ModeSocialTube, cond, nil)
	probe := &Message{Type: MsgProbe, From: 0}
	const timeout = 150 * time.Millisecond

	cond.Apply(faults.Event{Kind: faults.KindChaosStart, CorruptP: 1})
	if _, err := rpc(p.Addr(), probe, timeout); err == nil {
		t.Fatal("corrupted response frame produced no error")
	}
	if got := p.Counters().ChaosCorrupted; got == 0 {
		t.Fatal("ChaosCorrupted not accounted")
	}
	// A chunk reply is almost all payload, so every flipped byte lands in
	// it and the body still parses: only the frame checksum refuses it.
	v := tr.Videos[0].ID
	p.SeedCache(v)
	chunkReq := &Message{Type: MsgChunkReq, From: 0, Video: int(v)}
	if resp, err := rpc(p.Addr(), chunkReq, timeout); err == nil {
		t.Fatalf("corrupted chunk reply accepted: %d payload bytes", len(resp.Payload))
	}

	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	cond.Apply(faults.Event{Kind: faults.KindChaosStart, TruncateP: 1})
	if _, err := rpc(p.Addr(), probe, timeout); err == nil {
		t.Fatal("truncated response frame produced no error")
	}
	if got := p.Counters().ChaosTruncated; got == 0 {
		t.Fatal("ChaosTruncated not accounted")
	}

	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	cond.Apply(faults.Event{Kind: faults.KindChaosStart, DuplicateP: 1})
	resp, err := rpc(p.Addr(), probe, timeout)
	if err != nil || resp.Type != MsgOK {
		t.Fatalf("duplicated frame broke the RPC: %v %v", resp, err)
	}
	if got := p.Counters().ChaosDuplicated; got == 0 {
		t.Fatal("ChaosDuplicated not accounted")
	}

	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	cond.Apply(faults.Event{Kind: faults.KindChaosStart, StallP: 1, StallFor: time.Second})
	if _, err := rpc(p.Addr(), probe, timeout); err == nil {
		t.Fatal("stalled response frame beat the deadline")
	}
	if got := p.Counters().ChaosStalled; got == 0 {
		t.Fatal("ChaosStalled not accounted")
	}

	// The window closes and the peer is immediately healthy again.
	cond.Apply(faults.Event{Kind: faults.KindChaosEnd})
	resp, err = rpc(p.Addr(), probe, timeout)
	if err != nil || resp.Type != MsgOK {
		t.Fatalf("post-chaos probe failed: %v %v", resp, err)
	}
	resp, err = rpc(p.Addr(), chunkReq, timeout)
	if err != nil || len(resp.Payload) != chunkPayloadBytes {
		t.Fatalf("post-chaos chunk request failed: %v %v", resp, err)
	}
}

// countingSink returns a listener address that accepts and immediately
// closes every connection, plus a function reporting how many arrived.
func countingSink(t *testing.T) (string, func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 1024)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
			ch <- struct{}{}
		}
	}()
	return ln.Addr().String(), func() int {
		n := 0
		for {
			select {
			case <-ch:
				n++
			case <-time.After(50 * time.Millisecond):
				return n
			}
		}
	}
}

// TestRPCRetryExhaustsBudgetWithDoublingBackoff pins retry's contract:
// exactly MaxRetries+1 attempts against a sink that hangs up on every
// connection, one RPCFailures increment at the end, and a total elapsed
// time that proves the backoff doubled rather than stayed flat.
func TestRPCRetryExhaustsBudgetWithDoublingBackoff(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	const backoff = 40 * time.Millisecond
	p := startPeerCfg(t, tr, tk, 1, ModeSocialTube, nil, func(c *PeerConfig) {
		c.MaxRetries = 2
		c.RetryBackoff = backoff
		c.RPCTimeout = 200 * time.Millisecond
	})
	addr, attempts := countingSink(t)

	begin := time.Now()
	_, err := p.retry(func() (*Message, error) {
		return rpc(addr, &Message{Type: MsgProbe, From: 1}, p.cfg.RPCTimeout)
	})
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("retry succeeded against a hang-up sink")
	}
	if got := attempts(); got != 3 {
		t.Fatalf("sink saw %d attempts, want MaxRetries+1 = 3", got)
	}
	// Two sleeps: backoff then 2*backoff. A flat backoff would finish in
	// ~2*backoff of sleep; doubling needs at least 3*backoff.
	if elapsed < 3*backoff {
		t.Fatalf("elapsed %v proves no doubling (want >= %v of backoff alone)", elapsed, 3*backoff)
	}
	if got := p.Counters().RPCFailures; got != 1 {
		t.Fatalf("RPCFailures = %d, want 1 (budget exhaustion is one failure)", got)
	}
}

// TestRPCRetryAbortsOnStop pins the early-abort path: a peer stopped
// mid-backoff must abandon the retry immediately instead of sleeping out
// its (long) backoff schedule.
func TestRPCRetryAbortsOnStop(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, nil)
	p := startPeerCfg(t, tr, tk, 1, ModeSocialTube, nil, func(c *PeerConfig) {
		c.MaxRetries = 8
		c.RetryBackoff = 10 * time.Second // would sleep forever without the abort
		c.RPCTimeout = 100 * time.Millisecond
	})
	addr, _ := countingSink(t)

	done := make(chan error, 1)
	go func() {
		_, err := p.retry(func() (*Message, error) {
			return rpc(addr, &Message{Type: MsgProbe, From: 1}, p.cfg.RPCTimeout)
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail into the backoff wait
	p.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted retry reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retry kept sleeping after Stop")
	}
	if got := p.Counters().RPCFailures; got != 1 {
		t.Fatalf("RPCFailures = %d, want 1", got)
	}
}
