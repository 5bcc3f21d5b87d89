package emu

import (
	"context"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
)

// TestWholeShardTakeover kills every replica of one shard of a 2×2 plane
// mid-run and checks the partition-tolerant control plane recovers end
// to end: a surviving replica declares the shard dead within the
// suspicion window (liveness gossip), peers reroute the dead shard's
// channels onto the survivors (ring re-rendezvous + epoch adoption), and
// the run finishes with zero failed requests — pre-declaration loss is
// absorbed by the fallback walk, post-declaration routing is clean.
func TestWholeShardTakeover(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.VideosPerSession = 20
	cfg.WatchTime = 4 * time.Millisecond
	cfg.MeanOffTime = 4 * time.Millisecond
	cfg.ControlPlane = ControlPlaneConfig{
		Shards: 2, Replicas: 2, RingSeed: 1,
		GossipInterval:  2 * time.Millisecond,
		GossipTimeout:   10 * time.Millisecond,
		SuspicionRounds: 3,
	}
	// Whole shard 1 (both replicas) goes dark from 40ms to 120ms.
	cfg.Faults = faults.ShardOutagePlan(cfg.Seed, 40*time.Millisecond, 1)
	cfg.Peer.RPCTimeout = 25 * time.Millisecond
	cfg.Peer.MaxRetries = 2
	cfg.Peer.RetryBackoff = 3 * time.Millisecond
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests != 0 {
		t.Fatalf("lost %d requests across a whole-shard outage; want 0", res.FailedRequests)
	}
	if res.Delivered() == 0 {
		t.Fatal("run served nothing")
	}
	if res.Obs.ShardsDeclaredDead == 0 {
		t.Fatal("no survivor declared the dead shard within the suspicion window")
	}
	if res.TakeoverMs <= 0 {
		t.Fatalf("time-to-takeover not measured: %v", res.TakeoverMs)
	}
	if res.Obs.TakeoverReroutes == 0 {
		t.Fatal("no request was rerouted to a takeover owner")
	}
}

// TestPartitionGossipSplitBrainHeals runs two live replicas of one shard
// under a 2-group partition: writes on each side must NOT converge
// across the cut while it holds (split brain is explicit, not hidden),
// and after the heal the versioned LWW merge must re-converge both
// member tables with zero lost registrations.
func TestPartitionGossipSplitBrainHeals(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	ta := startTracker(t, tr, cond)
	tb := startTracker(t, tr, cond)
	addrs := []string{ta.Addr(), tb.Addr()}
	ta.StartGossip(ControlPlaneConfig{RingSeed: 17, GossipInterval: 2 * time.Millisecond, GossipTimeout: 50 * time.Millisecond}, [][]string{addrs}, 0, 0)
	tb.StartGossip(ControlPlaneConfig{RingSeed: 17, GossipInterval: 2 * time.Millisecond, GossipTimeout: 50 * time.Millisecond}, [][]string{addrs}, 0, 1)

	ch := tr.Channels[0].ID
	join := func(tk *Tracker, id int) {
		t.Helper()
		resp, err := rpc(tk.Addr(), &Message{
			Type: MsgJoin, From: id, Addr: "127.0.0.1:9", Channel: int(ch), TTL: 1,
		}, 2*time.Second)
		if err != nil || resp.Type != MsgJoinOK {
			t.Fatalf("join %d: %v %+v", id, err, resp)
		}
	}
	waitLive := func(tk *Tracker, id int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if m := tk.channels.Live(int64(ch)); m[id] != "" {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("replica never learned member %d: %v", id, tk.channels.Live(int64(ch)))
	}

	// Healthy baseline: gossip converges.
	join(ta, 2)
	waitLive(tb, 2)

	// Split: member 4 sits on side 0, member 5 on side 1 — each write
	// lands on its own side's replica and must stay there.
	cond.Apply(faults.Event{Kind: faults.KindPartitionStart, Groups: 2})
	join(ta, 4)
	join(tb, 5)
	time.Sleep(20 * time.Millisecond)
	if m := tb.channels.Live(int64(ch)); m[4] != "" {
		t.Fatal("gossip converged across the partition cut")
	}
	if m := ta.channels.Live(int64(ch)); m[5] != "" {
		t.Fatal("gossip converged across the partition cut")
	}

	// Heal: both sides merge; no registration may be lost.
	cond.Apply(faults.Event{Kind: faults.KindPartitionEnd})
	waitLive(tb, 4)
	waitLive(ta, 5)
}

// TestHintedHandoffReplaysOnHeal pins the write-side half of partition
// tolerance: a leave broadcast under a partition queues a hint for the
// unreachable replica instead of silently dropping it, and ReplayHints
// delivers the leave after the heal.
func TestHintedHandoffReplaysOnHeal(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	plane, err := StartControlPlane(ControlPlaneConfig{
		Shards: 1, Replicas: 2, RingSeed: 3,
		GossipInterval: 2 * time.Millisecond,
		GossipTimeout:  50 * time.Millisecond,
	}, DefaultTrackerConfig(), tr, cond)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Stop()

	pc := DefaultPeerConfig(0, ModeSocialTube) // side 0: replica 1 is cut off
	p, err := NewPeerWithControlPlane(pc, tr, plane, cond)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	ch := tr.Users[0].Subscriptions[0]
	p.attachChannel(ch)
	far := plane.Shard(0).Replica(1)
	listed := func() bool { return far.channels.Live(int64(ch))[0] != "" }
	for deadline := time.Now().Add(5 * time.Second); !listed(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("far replica never learned the member by gossip")
		}
	}

	cond.Apply(faults.Event{Kind: faults.KindPartitionStart, Groups: 2})
	p.LeaveOverlays()
	if got := p.Counters().HintsQueued; got != 1 {
		t.Fatalf("leave broadcast queued %d hints; want 1 (the severed replica)", got)
	}
	if !listed() {
		t.Fatal("leave crossed the partition cut")
	}

	cond.Apply(faults.Event{Kind: faults.KindPartitionEnd})
	p.ReplayHints()
	if got := p.Counters().HintsReplayed; got != 1 {
		t.Fatalf("replayed %d hints after heal; want 1", got)
	}
	if listed() {
		t.Fatal("far-side replica still lists the peer after the replayed leave")
	}
}

// TestTakeoverLatchIgnoresPreOutageVerdicts pins the time-to-takeover
// latch: a false suspicion declared before the whole-shard outage began
// must not consume it — the figure measures the first death verdict at
// or after the outage start.
func TestTakeoverLatchIgnoresPreOutageVerdicts(t *testing.T) {
	tk, err := NewTracker(DefaultTrackerConfig(), emuTrace(t), fastConditions())
	if err != nil {
		t.Fatal(err)
	}
	const falseSuspicion, outage, declared = 100, 200, 300
	tk.noteTransitions([]int{1}, nil, falseSuspicion)
	tk.noteTransitions(nil, []int{1}, falseSuspicion+10)
	tk.takeoverSince.Store(outage)
	tk.noteTransitions([]int{1}, nil, declared)
	tk.noteTransitions([]int{1}, nil, declared+50) // later verdicts do not move the latch
	if got := tk.declaredNano.Load(); got != declared {
		t.Fatalf("takeover latch = %d, want the first post-outage verdict %d", got, declared)
	}
	if got := tk.Counters().ShardsDeclaredDead; got != 3 {
		t.Fatalf("ShardsDeclaredDead = %d, want every verdict (3) still counted", got)
	}
}
