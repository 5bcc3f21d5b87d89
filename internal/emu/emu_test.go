package emu

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

func emuTrace(t *testing.T) *trace.Trace {
	t.Helper()
	// Paper's PlanetLab scale, shrunk: 6 categories, 10 channels each.
	cfg := trace.DefaultConfig()
	cfg.Seed = 51
	cfg.Channels = 60
	cfg.Users = 64
	cfg.Categories = 6
	cfg.MaxInterestsPerUser = 6
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fastConditions() *Conditions {
	return &Conditions{Seed: 1, MinLatency: 100 * time.Microsecond, MaxLatency: time.Millisecond, LossP: 0}
}

func startTracker(t *testing.T, tr *trace.Trace, cond *Conditions) *Tracker {
	t.Helper()
	tk, err := NewTracker(DefaultTrackerConfig(), tr, cond)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tk.Stop)
	return tk
}

// newTestPeer builds (without starting) a peer whose control plane is the
// one tracker at addr — the routing-only 1x1 plane.
func newTestPeer(t testing.TB, cfg PeerConfig, tr *trace.Trace, addr string, cond *Conditions) *Peer {
	t.Helper()
	cp, err := NewControlPlaneClient(0, [][]string{{addr}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeerWithControlPlane(cfg, tr, cp, cond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startPeer(t *testing.T, tr *trace.Trace, tk *Tracker, id int, mode Mode, cond *Conditions) *Peer {
	t.Helper()
	cfg := DefaultPeerConfig(id, mode)
	p := newTestPeer(t, cfg, tr, tk.Addr(), cond)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgQuery, From: 7, Addr: "127.0.0.1:9", Video: 3, TTL: 2,
		Visited: []int{1, 2}, Payload: []byte{1, 2, 3},
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	// The frame's exact bytes: any change to the wire format shows here.
	const golden = "00000031" + "0c4deb66" + // length of what follows, CRC-32C
		"05" + "7175657279" + "00" + "0e" + // type "query", seq 0, from 7
		"0b" + "3132372e302e302e313a39" + // addr
		"06" + "00" + "00" + "04" + // video 3, chunk, channel, ttl 2
		"02" + "0204" + // visited [1 2]
		"00000000000000" + // hops .. videos
		"03" + "010203" + // payload
		"00000000000000" // link .. deadShards
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("frame is\n%s\nwant\n%s", got, golden)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.From != in.From || out.Video != in.Video || out.TTL != in.TTL {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if len(out.Visited) != 2 || len(out.Payload) != 3 {
		t.Fatal("slices lost in round trip")
	}
}

func TestReadMessageRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("expected error for truncated frame")
	}
}

func TestConditionsLatencyDeterministicSymmetricBounded(t *testing.T) {
	c := DefaultConditions()
	for a := -1; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			l := c.Latency(a, b)
			if l != c.Latency(b, a) {
				t.Fatal("latency not symmetric")
			}
			if l < c.MinLatency || l > c.MaxLatency {
				t.Fatalf("latency %v out of bounds", l)
			}
		}
	}
	if c.Latency(3, 3) != 0 {
		t.Fatal("self latency should be zero")
	}
	var nilCond *Conditions
	if nilCond.Latency(1, 2) != 0 || nilCond.Drop() {
		t.Fatal("nil conditions should be a no-op")
	}
}

// TestConditionsDropRate: over 10^5 frames the drop fraction lands within
// 1% of LossP (three standard deviations at 0.5), and a frame's decision
// depends only on (seed, counter).
func TestConditionsDropRate(t *testing.T) {
	c := &Conditions{Seed: 3, LossP: 0.5}
	drops := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if c.Drop() {
			drops++
		}
	}
	if frac := float64(drops) / n; math.Abs(frac-c.LossP) > 0.01*c.LossP {
		t.Fatalf("drop rate %v, want within 1%% of %v", frac, c.LossP)
	}
	a, b := &Conditions{Seed: 3, LossP: 0.5}, &Conditions{Seed: 3, LossP: 0.5}
	b.lossCounter.Store(500)
	for i := 0; i < 500; i++ {
		a.Drop()
	}
	for i := 0; i < 1000; i++ {
		if a.Drop() != b.Drop() {
			t.Fatalf("frame %d: the same counter gave two decisions", 501+i)
		}
	}
	zero := &Conditions{LossP: 0}
	if zero.Drop() {
		t.Fatal("zero loss should never drop")
	}
}

func TestTrackerServesChunk(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	resp, err := rpc(tk.Addr(), &Message{Type: MsgServe, From: 0, Video: 0, Chunk: 0}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK || len(resp.Payload) != chunkPayloadBytes {
		t.Fatalf("bad serve response: type=%v payload=%d", resp.Type, len(resp.Payload))
	}
	if tk.ServedBytes() != chunkPayloadBytes {
		t.Fatalf("served bytes %d", tk.ServedBytes())
	}
}

func TestTrackerRejectsUnknownVideo(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	resp, err := rpc(tk.Addr(), &Message{Type: MsgServe, From: 0, Video: 1 << 30}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgMiss {
		t.Fatalf("type = %v, want miss", resp.Type)
	}
}

func TestTrackerTopList(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	var ch *trace.Channel
	for i := range tr.Channels {
		if len(tr.Channels[i].Videos) >= 5 {
			ch = &tr.Channels[i]
			break
		}
	}
	if ch == nil {
		t.Skip("no channel with 5+ videos")
	}
	resp, err := rpc(tk.Addr(), &Message{Type: MsgTopList, From: 0, Channel: int(ch.ID), TTL: 3}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK || len(resp.Videos) != 3 {
		t.Fatalf("top list response: %+v", resp)
	}
	for i, v := range resp.Videos {
		if trace.VideoID(v) != ch.Videos[i] {
			t.Fatalf("top list not rank ordered: %v", resp.Videos)
		}
	}
}

func TestPeerChunkFetchAndCache(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	p := startPeer(t, tr, tk, 0, ModeSocialTube, cond)
	v := tr.Videos[0].ID
	rec := p.RequestVideo(v)
	if rec.Source != vod.SourceServer {
		t.Fatalf("first fetch source = %v, want server", rec.Source)
	}
	if rec.Startup <= 0 {
		t.Fatal("startup delay not measured")
	}
	p.FinishVideo(v)
	rec = p.RequestVideo(v)
	if rec.Source != vod.SourceCache {
		t.Fatalf("cached fetch source = %v", rec.Source)
	}
}

func TestSocialTubePeerToPeerDelivery(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	// Pick a subscribed user and a video from that channel, plus another
	// subscriber of the same channel.
	var a, b int = -1, -1
	var v trace.VideoID = -1
	for _, ch := range tr.Channels {
		if len(ch.Subscribers) >= 2 && len(ch.Videos) > 0 && int(ch.Subscribers[0]) < 64 && int(ch.Subscribers[1]) < 64 {
			a, b = int(ch.Subscribers[0]), int(ch.Subscribers[1])
			v = ch.Videos[0]
			break
		}
	}
	if a < 0 {
		t.Skip("no channel with two subscribers among peer ids")
	}
	pa := startPeer(t, tr, tk, a, ModeSocialTube, cond)
	pb := startPeer(t, tr, tk, b, ModeSocialTube, cond)
	// a fetches from the server and caches; both attach to the channel
	// overlay.
	if rec := pa.RequestVideo(v); rec.Source != vod.SourceServer {
		t.Fatalf("seed fetch source = %v", rec.Source)
	}
	pa.FinishVideo(v)
	rec := pb.RequestVideo(v)
	if rec.Source != vod.SourcePeer {
		t.Fatalf("source = %v, want peer (a cached it and shares the channel overlay)", rec.Source)
	}
	if pb.Links() == 0 {
		t.Fatal("b holds no links after a successful peer fetch")
	}
}

func TestSocialTubePrefetchOverTCP(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	var node int = -1
	var ch *trace.Channel
	for _, u := range tr.Users {
		if int(u.ID) >= 64 {
			continue
		}
		for _, cid := range u.Subscriptions {
			if c := tr.Channel(cid); len(c.Videos) >= 5 {
				node, ch = int(u.ID), c
				break
			}
		}
		if ch != nil {
			break
		}
	}
	if ch == nil {
		t.Skip("no subscribed channel with enough videos")
	}
	p := startPeer(t, tr, tk, node, ModeSocialTube, cond)
	watched := ch.Videos[4]
	p.RequestVideo(watched)
	p.FinishVideo(watched)
	// After finishing, a request for the channel's top video must be a
	// prefix hit with zero startup delay.
	rec := p.RequestVideo(ch.Videos[0])
	if !rec.PrefixCached {
		t.Fatal("top channel video was not prefetched")
	}
	if rec.Startup != 0 {
		t.Fatalf("prefix hit startup = %v, want 0", rec.Startup)
	}
}

func TestOfflinePeerDoesNotServe(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	p := startPeer(t, tr, tk, 0, ModeSocialTube, cond)
	v := tr.Videos[0].ID
	p.RequestVideo(v)
	p.FinishVideo(v)
	p.SetOnline(false)
	if _, err := rpc(p.Addr(), &Message{Type: MsgChunkReq, From: 1, Video: int(v)}, time.Second); err == nil {
		t.Fatal("offline peer answered a chunk request")
	}
}

func TestPAVoDOverTCP(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	pa := startPeer(t, tr, tk, 0, ModePAVoD, cond)
	pb := startPeer(t, tr, tk, 1, ModePAVoD, cond)
	v := tr.Videos[0].ID
	if rec := pa.RequestVideo(v); rec.Source != vod.SourceServer {
		t.Fatalf("first watcher source = %v", rec.Source)
	}
	// While a still watches, b is directed to a.
	rec := pb.RequestVideo(v)
	if rec.Source != vod.SourcePeer {
		t.Fatalf("concurrent watcher not used: %v", rec.Source)
	}
	pa.FinishVideo(v)
	pb.FinishVideo(v)
	// After both finish, there is no provider and no cache.
	pc := startPeer(t, tr, tk, 2, ModePAVoD, cond)
	if rec := pc.RequestVideo(v); rec.Source != vod.SourceServer {
		t.Fatalf("PA-VoD should have no provider after finish: %v", rec.Source)
	}
}

func TestNetTubeOverTCP(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	pa := startPeer(t, tr, tk, 0, ModeNetTube, cond)
	pb := startPeer(t, tr, tk, 1, ModeNetTube, cond)
	v := tr.Videos[0].ID
	pa.RequestVideo(v)
	pa.FinishVideo(v)
	rec := pb.RequestVideo(v)
	if rec.Source != vod.SourcePeer {
		t.Fatalf("server should direct first request to overlay provider: %v", rec.Source)
	}
	if pb.Links() == 0 {
		t.Fatal("b did not join the per-video overlay")
	}
}

func TestProbeDropsDeadLinks(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	pa := startPeer(t, tr, tk, 0, ModeNetTube, cond)
	v := tr.Videos[0].ID

	cfgB := DefaultPeerConfig(1, ModeNetTube)
	pb := newTestPeer(t, cfgB, tr, tk.Addr(), cond)
	if err := pb.Start(); err != nil {
		t.Fatal(err)
	}
	pb.RequestVideo(v)
	pb.FinishVideo(v)
	pa.RequestVideo(v)
	pa.FinishVideo(v)
	if pa.Links() == 0 {
		pb.Stop()
		t.Skip("peers did not link")
	}
	pb.Stop() // hard kill: listener gone
	pa.mu.Lock()
	nbs := len(pa.links.neighbours(""))
	pa.mu.Unlock()
	before := pa.Counters()
	if msgs := pa.Probe(); msgs == 0 || msgs != nbs {
		t.Fatalf("a probe of %d neighbours sent %d messages", nbs, msgs)
	}
	if pa.Links() != 0 {
		t.Fatalf("dead link survived probe: %d links", pa.Links())
	}
	// Counted as the simulator counts them: one probe message per
	// neighbour, and every link dropped to a dead one.
	after := pa.Counters()
	if got := after.ProbeMsgs - before.ProbeMsgs; got != uint64(nbs) {
		t.Fatalf("a probe of %d neighbours counted %d probe messages", nbs, got)
	}
	if after.LinksPruned == before.LinksPruned {
		t.Fatal("a probe that dropped a dead link counted no pruned link")
	}
}

func TestClusterRunAllModes(t *testing.T) {
	tr := emuTrace(t)
	for _, mode := range []Mode{ModeSocialTube, ModeNetTube, ModePAVoD} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultClusterConfig(mode)
			cfg.Peers = 12
			cfg.Sessions = 2
			cfg.VideosPerSession = 4
			cfg.WatchTime = 5 * time.Millisecond
			cfg.MeanOffTime = 5 * time.Millisecond
			cfg.ProbeInterval = 50 * time.Millisecond
			cfg.Conditions = fastConditions()
			res, err := RunClusterCtx(context.Background(), cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			total := res.Delivered()
			want := int64(cfg.Peers * cfg.Sessions * cfg.VideosPerSession)
			if total != want {
				t.Fatalf("requests accounted %d, want %d", total, want)
			}
			if res.StartupDelay.Len() == 0 {
				t.Fatal("no startup samples")
			}
			if res.PeerBandwidth.Len() == 0 {
				t.Fatal("no bandwidth samples")
			}
			if mode != ModePAVoD && res.ServerBytes == 0 {
				t.Fatal("server shipped nothing")
			}
		})
	}
}

// TestClusterLiveMetrics scrapes /metrics while a cluster run is in flight:
// the OnMetricsAddr hook fires before the workload starts, so the GET races
// the run and must return a consistent JSON snapshot either way.
func TestClusterLiveMetrics(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 8
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 5 * time.Millisecond
	cfg.MeanOffTime = 5 * time.Millisecond
	cfg.Conditions = fastConditions()
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.PprofEnabled = true

	var scraped LiveMetrics
	var pprofStatus int
	cfg.OnMetricsAddr = func(addr string) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("GET /metrics: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /metrics = %d", resp.StatusCode)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&scraped); err != nil {
			t.Errorf("metrics not JSON: %v", err)
			return
		}
		pr, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			t.Errorf("GET /debug/pprof/: %v", err)
			return
		}
		pr.Body.Close()
		pprofStatus = pr.StatusCode
	}

	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if scraped.Protocol != "SocialTube" {
		t.Fatalf("scraped protocol %q", scraped.Protocol)
	}
	if scraped.Tracker.RequestsByType == nil {
		t.Fatal("scraped snapshot has no tracker request map")
	}
	if pprofStatus != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", pprofStatus)
	}
	// After the run the endpoint is down but the final result carries the
	// same counters the endpoint was serving.
	if res.Delivered() == 0 {
		t.Fatal("run produced no requests")
	}
}

// TestStartedClusterIsQuiet pins that starting peers sends the control
// plane nothing: a peer first talks to the tracker when a request joins
// an overlay.
func TestStartedClusterIsQuiet(t *testing.T) {
	c, err := StartCluster(fastClusterConfig(ModeSocialTube), emuTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if stats := c.Plane.First().Stats(); len(stats) != 0 {
		t.Fatalf("tracker handled %v before any request; want nothing", stats)
	}
}

// TestClusterSeedsEveryElement: StartCluster seeds every element from
// ClusterConfig.Seed, whatever seeds its Tracker and Conditions templates
// carry. Tracker i of a 3x1 plane started with Seed 7 recommends what a
// tracker seeded 7 + i·104,729 recommends to the same joins, and every
// tracker and peer injects the latency simnet.PairLatency(7, …) draws.
func TestClusterSeedsEveryElement(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers, cfg.Seed = 4, 7
	cfg.ControlPlane = ControlPlaneConfig{Shards: 3, Replicas: 1, RingSeed: 1}
	c, err := StartCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var sibs []int
	for _, ch := range tr.Channels {
		if ch.Primary == tr.Channels[0].Primary {
			sibs = append(sibs, int(ch.ID))
		}
	}
	joins := func(tk *Tracker) [][]PeerInfo {
		var out [][]PeerInfo
		for id := range 12 {
			resp := tk.dispatch(&Message{Type: MsgJoin, From: id, Addr: "127.0.0.1:" + strconv.Itoa(9000+id),
				Channel: sibs[id%len(sibs)], TTL: 1})
			out = append(out, resp.Peers)
		}
		return out
	}
	def := DefaultConditions()
	var conds []*Conditions
	for i, tk := range c.Plane.Trackers() {
		tc := DefaultTrackerConfig()
		tc.Seed = 7 + int64(i)*104_729
		ref, err := NewTracker(tc, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := joins(tk), joins(ref); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("tracker %d recommends %v; a tracker seeded 7 + %d·104,729 %v", i, got, i, want)
		}
		conds = append(conds, tk.cond)
	}
	for _, p := range c.Peers {
		conds = append(conds, p.cond)
	}
	for i, cond := range conds {
		for a := -1; a < 6; a++ {
			for b := -1; b < 6; b++ {
				if got, want := cond.Latency(a, b), simnet.PairLatency(7, def.MinLatency, def.MaxLatency, int64(a), int64(b)); got != want {
					t.Fatalf("element %d: latency %d→%d = %v, want %v", i, a, b, got, want)
				}
			}
		}
	}
}

// TestReplicaKeepsPlaneTiming: StartReplica gossips with cfg.ControlPlane's
// timing, as StartCluster's trackers do, while the routing plane, not cfg,
// gives the shape.
func TestReplicaKeepsPlaneTiming(t *testing.T) {
	var addrs [][]string
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, []string{ln.Addr().String()})
		ln.Close()
	}
	plane, err := NewControlPlaneClient(3, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.ControlPlane = ControlPlaneConfig{Shards: 5, Replicas: 5, GossipTimeout: 123 * time.Millisecond}
	tk, err := StartReplica(plane, 1, cfg, emuTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	if tk.cl.timeout != cfg.ControlPlane.GossipTimeout {
		t.Fatalf("replica gossips with a %v timeout, want the config's %v", tk.cl.timeout, cfg.ControlPlane.GossipTimeout)
	}
}

// TestLiveMetricsCoverThePlane pins that the /metrics JSON counts the
// requests of every tracker of the plane, as its Prometheus view does,
// not only those of shard 0 replica 0, and counts a peer listed on two
// replicas once.
func TestLiveMetricsCoverThePlane(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.ControlPlane = ControlPlaneConfig{Shards: 2, Replicas: 2, RingSeed: 1}
	plane, err := StartControlPlane(cfg.plane(), cfg.Tracker, tr, cfg.Conditions)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Stop()
	ch := int(tr.Channels[0].ID)
	far := plane.Shard(1).Replica(1)
	if _, err := rpc(far.Addr(), &Message{Type: MsgTopList, From: 1, Channel: ch}, time.Second); err != nil {
		t.Fatal(err)
	}
	// One peer joining on two replicas is one peer.
	for _, tk := range []*Tracker{plane.First(), far} {
		if _, err := rpc(tk.Addr(), &Message{Type: MsgJoin, From: 7, Addr: "127.0.0.1:9", Channel: ch, TTL: 1}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	res := &ClusterResult{Ledger: vod.NewLedger(1, 1)}
	var mu sync.Mutex
	m := liveMetrics(cfg, plane, res, &mu, obs.NewMemWatermark(1), tr.Bytes(), len(tr.Users))
	if got := m.Tracker.RequestsByType[MsgTopList]; got != 1 {
		t.Fatalf("live metrics count %d top_list requests; want the 1 sent to replica (1,1)", got)
	}
	if m.Tracker.Peers != 1 {
		t.Fatalf("live metrics count %d peers; want 1", m.Tracker.Peers)
	}
}

// TestPromScrapeRacesRequests scrapes the Prometheus exposition in a loop
// while requests complete. The handler renders the startup-delay histogram
// after releasing the result lock, so it must work on a deep copy: a plain
// struct copy shares the slice-backed bucket window with the histogram the
// session goroutines keep adding to (the race detector flags it, and a
// torn render shows buckets summing past the count). Each round also
// fetches the JSON view, which reads every tracker's member tables while
// the handlers write them. Run under -race.
func TestPromScrapeRacesRequests(t *testing.T) {
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 8
	cfg.Sessions = 3
	cfg.VideosPerSession = 4
	cfg.WatchTime = 3 * time.Millisecond
	cfg.MeanOffTime = 3 * time.Millisecond
	cfg.Conditions = fastConditions()
	cfg.MetricsAddr = "127.0.0.1:0"

	runDone := make(chan struct{})
	scraperDone := make(chan struct{})
	scrapes, sawRequests := 0, false
	cfg.OnMetricsAddr = func(addr string) {
		go func() {
			defer close(scraperDone)
			for {
				select {
				case <-runDone:
					return
				default:
				}
				if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
					resp.Body.Close()
				}
				resp, err := http.Get("http://" + addr + "/metrics?format=prom")
				if err != nil {
					continue // the server closes when the run ends
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					continue
				}
				scrapes++
				var lastBucket, inf, count uint64
				for _, line := range strings.Split(string(body), "\n") {
					name, val, _ := strings.Cut(line, " ")
					n, _ := strconv.ParseUint(val, 10, 64)
					switch {
					case name == `socialtube_startup_delay_ms_bucket{le="+Inf"}`:
						inf = n
					case strings.HasPrefix(name, "socialtube_startup_delay_ms_bucket"):
						lastBucket = n
					case name == "socialtube_startup_delay_ms_count":
						count = n
					}
				}
				if inf != count || lastBucket != count {
					t.Errorf("torn histogram render: last bucket %d, +Inf %d, count %d", lastBucket, inf, count)
				}
				sawRequests = sawRequests || count > 0
			}
		}()
	}
	res, err := RunClusterCtx(context.Background(), cfg, emuTrace(t))
	close(runDone)
	if err != nil {
		t.Fatal(err)
	}
	<-scraperDone
	if scrapes == 0 || !sawRequests {
		t.Fatalf("%d scrapes overlapped the run (saw requests: %v); the test raced nothing", scrapes, sawRequests)
	}
	if res.StartupDelay.Len() == 0 {
		t.Fatal("run recorded no startup delays")
	}
}

// serveLog records the video of every serve event, per node.
type serveLog struct {
	mu     sync.Mutex
	videos map[int][]trace.VideoID
}

func (l *serveLog) Emit(e obs.Event) {
	if e.Kind != obs.KindServe {
		return
	}
	l.mu.Lock()
	l.videos[e.Node] = append(l.videos[e.Node], trace.VideoID(e.Video))
	l.mu.Unlock()
}

// TestPeerSessionsFollowPlans: each peer replays the sessions its own
// stream plans, back to back, as the simulator does. The off period
// between sessions is the plan's own, so no extra draw may shift the
// stream the next session is planned from.
func TestPeerSessionsFollowPlans(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 4
	cfg.Sessions = 3
	cfg.VideosPerSession = 3
	cfg.WatchTime = time.Millisecond
	cfg.MeanOffTime = 2 * time.Millisecond
	cfg.ProbeInterval = 0
	cfg.Conditions = nil
	served := &serveLog{videos: map[int][]trace.VideoID{}}
	cfg.Tracer = served
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err != nil {
		t.Fatal(err)
	}
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < cfg.Peers; idx++ {
		g := dist.NewRNG(cfg.Seed*1_000_003 + int64(idx))
		var want []trace.VideoID
		for s := 0; s < cfg.Sessions; s++ {
			want = append(want, picker.PlanSession(g, &tr.Users[idx], cfg.VideosPerSession, cfg.MeanOffTime).Videos...)
		}
		if got := served.videos[idx]; !slices.Equal(got, want) {
			t.Fatalf("peer %d served %v, want the planned sessions %v", idx, got, want)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 0
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err == nil {
		t.Fatal("zero peers accepted")
	}
	cfg = DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = len(tr.Users) + 1
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err == nil {
		t.Fatal("more peers than users accepted")
	}
	if _, err := RunClusterCtx(context.Background(), DefaultClusterConfig(ModeSocialTube), nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

// TestNoGoroutineLeaks ensures Stop releases everything a cluster started.
func TestNoGoroutineLeaks(t *testing.T) {
	tr := emuTrace(t)
	before := runtime.NumGoroutine()
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 8
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 2 * time.Millisecond
	cfg.Conditions = fastConditions()
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err != nil {
		t.Fatal(err)
	}
	// Allow lingering handler goroutines to wind down.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
