package emu

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// startPlane builds and starts an in-process control plane with fast
// conditions for tests.
func startPlane(t *testing.T, tr *trace.Trace, cfg ControlPlaneConfig) *ControlPlane {
	t.Helper()
	cp, err := StartControlPlane(cfg, DefaultTrackerConfig(), tr, fastConditions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return cp
}

// TestControlPlaneClientIsInert pins the routing-only plane's shape: over
// one address it is one shard owning every key, and every server-side
// method is a no-op, so fault drivers can target it unconditionally.
func TestControlPlaneClientIsInert(t *testing.T) {
	cp, err := NewControlPlaneClient(0, [][]string{{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Replicas(0); cp.NumShards() != 1 || len(got) != 1 || got[0] != "127.0.0.1:1" {
		t.Fatalf("plane is %d shards with replicas %v, want 1x1", cp.NumShards(), got)
	}
	for _, key := range []int64{0, 1, 42, 1 << 40} {
		if cp.Owner(key) != 0 || cp.OwnerExcluding(key, 1) != 0 {
			t.Fatalf("key %d: owner %d, excluding-owner %d, want 0 and 0",
				key, cp.Owner(key), cp.OwnerExcluding(key, 1))
		}
	}
	cp.SetDown(true)
	cp.Shard(0).SetDown(true)
	cp.Shard(99).SetDown(true)
	if cp.First() != nil || cp.Trackers() != nil {
		t.Fatal("client-only plane exposes trackers")
	}
	cp.Stop()
}

// TestRingStableUnderReplicaAddition: the ring hashes channels to shard
// indices only — replicas are not ring members — so adding a replica to a
// shard moves no keys at all.
func TestRingStableUnderReplicaAddition(t *testing.T) {
	before, err := NewControlPlaneClient(7, [][]string{{"a0"}, {"b0"}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewControlPlaneClient(7, [][]string{{"a0", "a1"}, {"b0", "b1", "b2"}})
	if err != nil {
		t.Fatal(err)
	}
	for key := int64(0); key < 1000; key++ {
		if before.Owner(key) != after.Owner(key) {
			t.Fatalf("key %d moved shard (%d -> %d) when only replicas were added",
				key, before.Owner(key), after.Owner(key))
		}
	}
}

// TestDirectoryValidation: a plane's replica lists must name at least one
// shard, every shard at least one replica, every replica an address; flat
// endpoint indices are stable and collision-free.
func TestDirectoryValidation(t *testing.T) {
	for _, bad := range [][][]string{nil, {{"a"}, {}}, {{"a"}, {""}}} {
		if _, err := NewControlPlaneClient(1, bad); err == nil {
			t.Fatalf("replica lists %q accepted", bad)
		}
	}
	cp, err := NewControlPlaneClient(1, [][]string{{"a0", "a1"}, {"b0"}, {"c0", "c1", "c2"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for s := 0; s < cp.NumShards(); s++ {
		for rep := range cp.Replicas(s) {
			idx := cp.EndpointIndex(s, rep)
			if seen[idx] || idx < 0 || idx >= 6 {
				t.Fatalf("EndpointIndex(%d,%d) = %d collides or leaves [0, 6)", s, rep, idx)
			}
			seen[idx] = true
		}
	}
}

// TestControlPlaneConfigValidate: a plane's shape, timing and suspicion
// count are checked before any tracker starts. SuspicionRounds 1 and 2
// declare live shards dead, so only 0 (the default) and >= 3 pass.
func TestControlPlaneConfigValidate(t *testing.T) {
	for _, tt := range []struct {
		name string
		edit func(*ControlPlaneConfig)
		ok   bool
	}{
		{"default", func(*ControlPlaneConfig) {}, true},
		{"zero shards", func(c *ControlPlaneConfig) { c.Shards = 0 }, false},
		{"too many replicas", func(c *ControlPlaneConfig) { c.Replicas = 257 }, false},
		{"too many shards", func(c *ControlPlaneConfig) { c.Shards = 65 }, false},
		{"negative gossip interval", func(c *ControlPlaneConfig) { c.GossipInterval = -time.Millisecond }, false},
		{"negative suspicion", func(c *ControlPlaneConfig) { c.SuspicionRounds = -1 }, false},
		{"suspicion 1", func(c *ControlPlaneConfig) { c.SuspicionRounds = 1 }, false},
		{"suspicion 2", func(c *ControlPlaneConfig) { c.SuspicionRounds = 2 }, false},
		{"suspicion 3", func(c *ControlPlaneConfig) { c.SuspicionRounds = 3 }, true},
		{"suspicion 5", func(c *ControlPlaneConfig) { c.SuspicionRounds = 5 }, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultControlPlaneConfig()
			tt.edit(&cfg)
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tt.ok && !errors.Is(err, dist.ErrBadParameter) {
				t.Fatalf("got %v, want ErrBadParameter", err)
			}
		})
	}
}

// TestTrackerRPCRoutesToOwningShard drives member joins through a peer's
// control-plane routing on a 2-shard plane and asserts the membership
// lands on exactly the ring-designated shard.
func TestTrackerRPCRoutesToOwningShard(t *testing.T) {
	tr := emuTrace(t)
	cp := startPlane(t, tr, ControlPlaneConfig{Shards: 2, Replicas: 1, RingSeed: 3})
	cfg := DefaultPeerConfig(0, ModeSocialTube)
	p, err := NewPeerWithControlPlane(cfg, tr, cp, fastConditions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)

	routedTo := map[int]bool{}
	for i := 0; i < 8 && i < len(tr.Channels); i++ {
		ch := tr.Channels[i].ID
		resp, err := p.trackerRPC(int64(ch), &Message{
			Type: MsgJoin, From: 0, Addr: p.Addr(), Channel: int(ch), TTL: 1,
		})
		if err != nil || resp.Type != MsgJoinOK {
			t.Fatalf("join channel %d: %v %+v", ch, err, resp)
		}
		owner := cp.Owner(int64(ch))
		other := 1 - owner
		routedTo[owner] = true
		if got := cp.trackers[owner][0].channels.Live(int64(ch)); got[0] != p.Addr() {
			t.Fatalf("channel %d membership missing on owning shard %d: %v", ch, owner, got)
		}
		if got := cp.trackers[other][0].channels.Live(int64(ch)); got != nil {
			t.Fatalf("channel %d membership leaked to shard %d: %v", ch, other, got)
		}
	}
	if len(routedTo) != 2 {
		t.Fatalf("all sampled channels landed on shards %v; want both shards exercised", routedTo)
	}
}

// TestJoinMembershipExclusive is the regression test for the channel-map
// staleness bug: a member join used to leave the peer's entry under its
// previous home channel alive, so the tracker kept recommending a peer
// that had moved away. With exclusive membership the old row is
// tombstoned the moment the peer joins its new home.
func TestJoinMembershipExclusive(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	chA, chB := tr.Channels[0].ID, tr.Channels[1].ID
	join := func(ch trace.ChannelID) {
		t.Helper()
		resp, err := rpc(tk.Addr(), &Message{
			Type: MsgJoin, From: 7, Addr: "127.0.0.1:9", Channel: int(ch), TTL: 1,
		}, 2*time.Second)
		if err != nil || resp.Type != MsgJoinOK {
			t.Fatalf("join %d: %v %+v", ch, err, resp)
		}
	}
	join(chA)
	if got := tk.channels.Live(int64(chA)); got[7] == "" {
		t.Fatalf("member missing after join: %v", got)
	}
	join(chB)
	if got := tk.channels.Live(int64(chA)); got != nil {
		t.Fatalf("stale membership under previous home channel %d: %v", chA, got)
	}
	if got := tk.channels.Live(int64(chB)); got[7] == "" {
		t.Fatalf("member missing under new home channel %d: %v", chB, got)
	}
}

// TestTrackerGossipConvergesOverTCP runs two live tracker replicas wired
// by StartGossip and checks anti-entropy over real sockets: state written
// to one replica appears on the other; a downed replica diverges and
// re-converges after recovery.
func TestTrackerGossipConvergesOverTCP(t *testing.T) {
	tr := emuTrace(t)
	ta := startTracker(t, tr, fastConditions())
	tb := startTracker(t, tr, fastConditions())
	addrs := []string{ta.Addr(), tb.Addr()}
	ta.StartGossip(ControlPlaneConfig{RingSeed: 11, GossipInterval: 2 * time.Millisecond, GossipTimeout: time.Second}, [][]string{addrs}, 0, 0)
	tb.StartGossip(ControlPlaneConfig{RingSeed: 11, GossipInterval: 2 * time.Millisecond, GossipTimeout: time.Second}, [][]string{addrs}, 0, 1)

	ch := tr.Channels[0].ID
	join := func(id int) {
		t.Helper()
		resp, err := rpc(ta.Addr(), &Message{
			Type: MsgJoin, From: id, Addr: "127.0.0.1:9", Channel: int(ch), TTL: 1,
		}, 2*time.Second)
		if err != nil || resp.Type != MsgJoinOK {
			t.Fatalf("join: %v %+v", err, resp)
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

	join(1)
	waitLive(tb, 1)

	// A dark replica drops sync requests, diverges, and must re-converge
	// once it recovers.
	tb.SetDown(true)
	join(2)
	time.Sleep(10 * time.Millisecond)
	if m := tb.channels.Live(int64(ch)); m[2] != "" {
		t.Fatal("downed replica accepted gossip")
	}
	tb.SetDown(false)
	waitLive(tb, 2)
}

// TestShardedClusterShutdownReleasesEverything pins multi-tracker
// shutdown: a full 2x2-plane cluster run (gossip loops included) leaves
// no goroutine behind.
func TestShardedClusterShutdownReleasesEverything(t *testing.T) {
	tr := emuTrace(t)
	before := runtime.NumGoroutine()
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Peers = 8
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.ControlPlane = ControlPlaneConfig{Shards: 2, Replicas: 2, RingSeed: 1, GossipInterval: 2 * time.Millisecond}
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestShardedReplicaKillNoFailedRequests is the redesign's headline: with
// 2 shards x 2 replicas, killing one tracker replica mid-run costs zero
// requests — peers fail over to the shard's surviving replica.
func TestShardedReplicaKillNoFailedRequests(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.ControlPlane = ControlPlaneConfig{Shards: 2, Replicas: 2, RingSeed: 1, GossipInterval: 2 * time.Millisecond}
	cfg.Faults = faults.ReplicaOutagePlan(cfg.Seed, 30*time.Millisecond, 1, 1)
	cfg.Peer.RPCTimeout = 100 * time.Millisecond
	cfg.Peer.MaxRetries = 1
	cfg.Peer.RetryBackoff = 5 * time.Millisecond
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests != 0 {
		t.Fatalf("lost %d requests with a replicated shard down; want 0", res.FailedRequests)
	}
	if res.Delivered() == 0 {
		t.Fatal("run served nothing")
	}
}

// TestSingleTrackerOutageWalksTheFailoverPath drives a 1x1 plane through
// the one tracker-RPC path every plane takes (retry → walkShard → endpoint
// breaker): an outage shorter than the retry budget is ridden out with no
// RPC failure, a longer one fails the request and opens the endpoint's
// breaker, and an open breaker on the only replica is still probed, so
// service resumes the moment the tracker does.
func TestSingleTrackerOutageWalksTheFailoverPath(t *testing.T) {
	tr := emuTrace(t)
	plane := startPlane(t, tr, ControlPlaneConfig{Shards: 1, Replicas: 1})
	startOn := func(id int, tune func(*PeerConfig)) *Peer {
		t.Helper()
		pc := DefaultPeerConfig(id, ModePAVoD)
		tune(&pc)
		p, err := NewPeerWithControlPlane(pc, tr, plane, fastConditions())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p
	}

	// Attempts start at ≈0, ≈150ms and ≈400ms; the tracker is back at
	// 150ms, so the third attempt at the latest gets through.
	patient := startOn(0, func(c *PeerConfig) {
		c.RPCTimeout = 50 * time.Millisecond
		c.MaxRetries = 2
		c.RetryBackoff = 100 * time.Millisecond
	})
	plane.SetDown(true)
	recover := time.AfterFunc(150*time.Millisecond, func() { plane.SetDown(false) })
	defer recover.Stop()
	rec := patient.RequestVideo(tr.Videos[0].ID)
	if rec.Failed || rec.Source != vod.SourceServer {
		t.Fatalf("outage inside the retry budget lost the request: %+v", rec)
	}
	if got := patient.Counters().RPCFailures; got != 0 {
		t.Fatalf("RPCFailures = %d, want 0 (every call succeeded within its budget)", got)
	}

	// ≈45ms of budget against a tracker that stays dark.
	hasty := startOn(1, func(c *PeerConfig) {
		c.RPCTimeout = 20 * time.Millisecond
		c.MaxRetries = 1
		c.RetryBackoff = 5 * time.Millisecond
	})
	plane.SetDown(true)
	rec = hasty.RequestVideo(tr.Videos[1].ID)
	if !rec.Failed {
		t.Fatalf("request served by a dark tracker: %+v", rec)
	}
	ctr := hasty.Counters()
	if ctr.RPCFailures == 0 {
		t.Fatal("exhausted retry budgets recorded no RPCFailures")
	}
	if ctr.BreakerOpens == 0 {
		t.Fatal("repeated failures never opened the only endpoint's breaker")
	}

	// The breaker stays open for 30s; the walk must probe the replica
	// anyway, because there is no other.
	plane.SetDown(false)
	rec = hasty.RequestVideo(tr.Videos[2].ID)
	if rec.Failed {
		t.Fatalf("open breaker starved the only replica: %+v", rec)
	}
	if got := hasty.Counters().BreakerSkips; got == 0 {
		t.Fatal("the recovered request never met the open breaker; the probe path went untested")
	}
}
