package exp

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// scriptedProto is a minimal protocol whose Request answers come from a
// fixed function — the byte-accounting tests need exact control over the
// located source, which real protocols don't give.
type scriptedProto struct {
	request func(node int, v trace.VideoID) vod.RequestResult
}

func (s *scriptedProto) Name() string              { return "scripted" }
func (s *scriptedProto) Join(int)                  {}
func (s *scriptedProto) Leave(int)                 {}
func (s *scriptedProto) Fail(int)                  {}
func (s *scriptedProto) Finish(int, trace.VideoID) {}
func (s *scriptedProto) Links(int) int             { return 0 }
func (s *scriptedProto) Request(node int, v trace.VideoID) vod.RequestResult {
	return s.request(node, v)
}

func alwaysServer() *scriptedProto {
	return &scriptedProto{request: func(int, trace.VideoID) vod.RequestResult {
		return vod.RequestResult{Source: vod.SourceServer}
	}}
}

func deliverRunner(t *testing.T) *runner {
	t.Helper()
	return testRunner(t, quickConfig(), expTrace(t), alwaysServer())
}

// TestDeliverPrefixCachedServerBytes is the regression test for the
// prefix-cached double count: with the first chunk already local, only
// total − chunkBytes may cross the server's uplink. The old deliver
// fetched the buffer head and then the full remainder, billing the
// prefetched chunk's bytes a second time.
func TestDeliverPrefixCachedServerBytes(t *testing.T) {
	r := deliverRunner(t)
	const chunkBytes = 1_000_000
	const chunks int64 = vod.DefaultChunksPerVideo
	res := vod.RequestResult{Source: vod.SourceServer, PrefixCached: true}
	ready, shed := r.deliver(0, simnet.ServerID, res, chunkBytes, 0)
	if shed {
		t.Fatal("unbounded server shed a request")
	}
	if ready != 0 {
		t.Fatalf("prefix-cached playback should start immediately, got ready=%v", ready)
	}
	if got, want := r.net.ServerBytes(), chunkBytes*(chunks-1); got != want {
		t.Fatalf("server billed %d bytes for a prefix-cached video, want %d (total %d minus the local chunk)",
			got, want, chunkBytes*chunks)
	}
}

// TestDeliverPrefixCachedPeerBytes pins the peer-path half of the same
// bug: a prefix-cached peer delivery fetches total − chunkBytes from the
// provider's uplink, not the full video.
func TestDeliverPrefixCachedPeerBytes(t *testing.T) {
	r := deliverRunner(t)
	const chunkBytes = 1_000_000
	const chunks int64 = vod.DefaultChunksPerVideo
	res := vod.RequestResult{Source: vod.SourcePeer, Provider: 1, PrefixCached: true}
	ready, shed := r.deliver(0, simnet.NodeID(1), res, chunkBytes, 0)
	if shed {
		t.Fatal("peer delivery shed")
	}
	if ready != 0 {
		t.Fatalf("prefix-cached playback should start immediately, got ready=%v", ready)
	}
	if got, want := r.net.PeerBytes(), chunkBytes*(chunks-1); got != want {
		t.Fatalf("peer billed %d bytes for a prefix-cached video, want %d", got, want)
	}
}

// TestDeliverRemoteProvider pins the cross-community branch of deliver — the
// one statement of the fetch and playout-buffer arithmetic, which a second
// copy on the router used to restate: the provider is reached over the
// server-path latency per hop, the buffer fills at the nominal peer uplink,
// nothing touches the cell's own simnet, and the fetched bytes (the whole
// video, or all but the prefetched chunk) are billed as remote bytes.
func TestDeliverRemoteProvider(t *testing.T) {
	const chunkBytes = 1_000_000
	for _, prefix := range []bool{false, true} {
		r := deliverRunner(t)
		r.remote = &remoteRouter{}
		r.res.Sharded = &ShardedInfo{}
		res := vod.RequestResult{Source: vod.SourcePeer, Provider: int(remoteProvider), Hops: 2, PrefixCached: prefix}
		const now = 5 * time.Second
		ready, shed := r.deliver(0, remoteProvider, res, chunkBytes, now)
		if shed {
			t.Fatal("remote delivery shed")
		}
		total := int64(chunkBytes * vod.DefaultChunksPerVideo)
		want, fetched := now, total-chunkBytes
		if !prefix {
			fetched = total
			buffer := float64(vod.DefaultBitrateBps) * playoutBuffer.Seconds() / 8 * r.cfg.WatchScale
			fill := time.Duration(float64(int64(buffer)) * 8 / float64(simnet.PeerUplinkBps) * float64(time.Second))
			want = now + 3*r.net.Latency(simnet.ServerID, 0) + fill
		}
		if ready != want {
			t.Fatalf("prefix=%v: ready %v, want %v", prefix, ready, want)
		}
		if got := r.res.Sharded.RemoteBytes; got != fetched {
			t.Fatalf("prefix=%v: cell billed %d remote bytes, want %d", prefix, got, fetched)
		}
		if r.net.PeerBytes() != 0 || r.net.ServerBytes() != 0 {
			t.Fatalf("prefix=%v: remote delivery moved bytes on the cell's own simnet", prefix)
		}
	}
}

// TestDeliverHonorsLatencyBoost is the regression test for the ignored
// boost window: latency factors in (0,1) — a recovery/boost window —
// must scale the query path down, exactly as factors > 1 scale it up.
// The old deliver applied the factor only when it exceeded 1.
func TestDeliverHonorsLatencyBoost(t *testing.T) {
	readyAt := func(factor float64) (time.Duration, time.Duration) {
		r := deliverRunner(t)
		r.win.Apply(faults.Event{Kind: faults.KindBurstStart, LatencyFactor: factor})
		res := vod.RequestResult{Source: vod.SourceServer}
		ready, shed := r.deliver(0, simnet.ServerID, res, 1_000_000, 0)
		if shed {
			t.Fatal("unbounded server shed a request")
		}
		return ready, r.net.Latency(simnet.ServerID, 0)
	}
	base, lat := readyAt(1)
	for _, factor := range []float64{0.5, 3} {
		ready, _ := readyAt(factor)
		want := base - lat + time.Duration(float64(lat)*factor)
		if ready != want {
			t.Fatalf("factor %g: ready %v, want %v (base %v, latency %v)", factor, ready, want, base, lat)
		}
	}
}

// TestCompilePreservesBoostFactor pins the fault compiler's half of the
// boost fix: a LinkBurst with LatencyFactor in (0,1) compiles to a burst
// event carrying that factor, not one clamped up to 1.
func TestCompilePreservesBoostFactor(t *testing.T) {
	plan := &faults.Plan{
		Seed:   1,
		Bursts: []faults.LinkBurst{{At: time.Second, Duration: time.Second, LatencyFactor: 0.5}},
	}
	sched, err := plan.Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched.Events {
		if ev.Kind == faults.KindBurstStart {
			if ev.LatencyFactor != 0.5 {
				t.Fatalf("burst start compiled with factor %g, want 0.5", ev.LatencyFactor)
			}
			return
		}
	}
	t.Fatal("no burst start event compiled")
}

// openLoopConfig sizes an open-loop run: one video per arrival so the
// offered and request rates coincide.
func openLoopConfig() Config {
	cfg := quickConfig()
	cfg.Sessions = 1
	cfg.VideosPerSession = 1
	return cfg
}

// TestOpenLoopShedConservation drives a server-only protocol far past a
// tiny admission queue and pins the shed arithmetic: every offered
// arrival is either dropped busy or becomes a request, and every
// server-bound request is either admitted or shed — shed equals offered
// minus busy minus admitted.
func TestOpenLoopShedConservation(t *testing.T) {
	netCfg := simnet.DefaultConfig()
	netCfg.ServerQueueCap = 4
	prof := &load.Profile{Mode: load.Steady, Seed: 7, RPS: 40, Duration: 60 * time.Second}
	res, err := RunCtx(t.Context(), openLoopConfig(), expTrace(t), alwaysServer(), netCfg,
		Options{Load: prof})
	if err != nil {
		t.Fatal(err)
	}
	info := res.Load
	if info == nil {
		t.Fatal("open-loop run returned no Load block")
	}
	if info.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if info.Offered != info.Busy+res.Requests {
		t.Fatalf("offered %d != busy %d + requests %d", info.Offered, info.Busy, res.Requests)
	}
	admitted, shed := int64(res.Obs.ServerAdmitted), int64(res.Obs.ServerShed)
	if shed == 0 {
		t.Fatal("saturating run shed nothing — the queue bound is not biting")
	}
	if admitted+shed != res.Requests {
		t.Fatalf("admitted %d + shed %d != server requests %d", admitted, shed, res.Requests)
	}
	if shed != info.Offered-info.Busy-admitted {
		t.Fatalf("shed %d != offered %d − busy %d − admitted %d", shed, info.Offered, info.Busy, admitted)
	}
	if info.ServerAdmitted != admitted || info.ServerShed != shed {
		t.Fatalf("Load block (%d admitted / %d shed) disagrees with obs counters (%d / %d)",
			info.ServerAdmitted, info.ServerShed, admitted, shed)
	}
	if info.QueuePeak <= 0 || info.QueuePeak > netCfg.ServerQueueCap {
		t.Fatalf("queue peak %d outside (0, %d]", info.QueuePeak, netCfg.ServerQueueCap)
	}
	if res.ServerHits.Value() != admitted {
		t.Fatalf("server hits %d != admitted %d", res.ServerHits.Value(), admitted)
	}
}

// TestOpenLoopDeterminism pins reproducibility end to end: two same-seed
// open-loop runs of a real protocol marshal to byte-identical Results.
func TestOpenLoopDeterminism(t *testing.T) {
	tr := expTrace(t)
	netCfg := simnet.DefaultConfig()
	netCfg.ServerQueueCap = 8
	prof := &load.Profile{
		Mode: load.Burst, Seed: 3, RPS: 6, BurstRPS: 30,
		BurstAt: 20 * time.Second, BurstFor: 10 * time.Second,
		Duration: 60 * time.Second,
		Flash:    &load.FlashCrowd{Channel: 2, At: 10 * time.Second, For: 15 * time.Second},
	}
	run := func() []byte {
		t.Helper()
		res, err := RunCtx(t.Context(), openLoopConfig(), tr, socialTube(t, tr), netCfg,
			Options{Load: prof})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed open-loop runs marshalled differently:\n%s\nvs\n%s", a, b)
	}
}
