// Heap accounting is meaningless under the race detector (its shadow
// memory inflates it), so this file is build-tagged out of -race runs —
// same convention as internal/sim/alloc_test.go.

//go:build !race

package exp

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// heapSpike holds a large allocation across the request on which the
// runner's watermark samples the heap, then frees it and forces a GC, so
// the heap when the run ends is far below its peak.
type heapSpike struct {
	vod.Protocol
	n       int
	ballast []byte
}

const spikeBytes = 32 << 20

func (p *heapSpike) Request(node int, v trace.VideoID) vod.RequestResult {
	switch p.n++; p.n {
	case watermarkEvery - 8:
		p.ballast = make([]byte, spikeBytes)
	case watermarkEvery + 8:
		p.ballast = nil
		runtime.GC()
	}
	return p.Protocol.Request(node, v)
}

// TestHeapHighWaterReportsThePeak: Result.Mem.HeapHighWater is the largest
// heap sample of the run, not the closing one — on either partition, where
// the fold takes the largest cell's. It used to report MemWatermark.Sample's
// return value, the heap when the run ended; the partitioned path even
// discarded every in-run sample.
func TestHeapHighWaterReportsThePeak(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.Sessions = 16 // ≥ watermarkEvery requests in the largest community cell too
	check := func(name string, res *Result, err error, spiked int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if spiked == 0 {
			t.Fatalf("%s: no cell reached request %d, the test needs a longer workload", name, watermarkEvery)
		}
		if res.Mem.HeapHighWater < spikeBytes {
			t.Fatalf("%s: HeapHighWater %d B is below the %d B held when the watermark sampled mid-run",
				name, res.Mem.HeapHighWater, spikeBytes)
		}
	}
	p := &heapSpike{Protocol: socialTube(t, tr)}
	res, err := Run(cfg, tr, p, simnet.DefaultConfig())
	check("identity", res, err, p.n/watermarkEvery)

	spiked := 0
	inner := socialTubeFactory(1)
	factory := func(cell int, cellTr *trace.Trace) (vod.Protocol, error) {
		proto, err := inner(cell, cellTr)
		if len(cellTr.Users)*cfg.Sessions*cfg.VideosPerSession > watermarkEvery+8 {
			spiked++
		}
		return &heapSpike{Protocol: proto}, err
	}
	res, err = RunSharded(cfg, tr, factory, simnet.DefaultConfig(), ShardedOptions{Workers: 1})
	check("category", res, err, spiked)
}

// TestCellsCostTheirUsersNotTheCatalog runs NetTube over a trace whose
// catalog dwarfs its population, once as one cell and once split into 18
// community cells. Every cell shares the run's one vod.Picker and allocates
// a per-video member set only on the video's first join, so the partition
// allocates a small multiple of the single loop. A cell that rebuilt the
// picker or sized a member set per catalog video allocated that catalog
// once per cell: 18 times over.
func TestCellsCostTheirUsersNotTheCatalog(t *testing.T) {
	tcfg := trace.DefaultConfig()
	tcfg.Seed = 43
	tcfg.Users = 300
	tcfg.Channels = 200
	tcfg.VideoCountMultiplier = 4.4
	tr, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Sessions = 1
	allocated := func(run func() (*Result, error)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := allocated(func() (*Result, error) {
		nt, err := baseline.NewNetTube(baseline.DefaultNetTubeConfig(), tr)
		if err != nil {
			return nil, err
		}
		return Run(cfg, tr, nt, simnet.DefaultConfig())
	})
	cells := allocated(func() (*Result, error) {
		return RunSharded(cfg, tr, netTubeFactory(1), simnet.DefaultConfig(), ShardedOptions{Workers: 1})
	})
	t.Logf("%d users, %d videos: one cell allocates %d KiB, %d cells %d KiB (%.1fx)",
		len(tr.Users), len(tr.Videos), one>>10, tr.Categories, cells>>10, float64(cells)/float64(one))
	if cells > 5*one {
		t.Fatalf("the %d-cell run allocates %d KiB, more than 5x the one-cell run's %d KiB: catalog-sized state is built per cell",
			tr.Categories, cells>>10, one>>10)
	}
}

// TestFinishedResultFootprint keeps finished Results of an open-loop run
// alive — what a sweep or the benchmark harness does with every round —
// and measures what each one retains. Every series in a Result is a
// bounded histogram, so the footprint must be a few KiB and must not
// depend on how many requests the run served: a Result that holds one
// float per finished video (as LinksByVideoIndex once did) grows 4x
// between the two durations and is what multiplied a faster simulator's
// rounds into resident memory.
func TestFinishedResultFootprint(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.Sessions = 1
	cfg.VideosPerSession = 4
	const keep = 8
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// perResult is the live heap with the Results held minus the live
	// heap once they are dropped: exactly what they alone retain.
	perResult := func(d time.Duration) (bytes, requests int64) {
		results := make([]*Result, 0, keep)
		for i := 0; i < keep; i++ {
			prof := &load.Profile{Mode: load.Steady, Seed: int64(i + 1), RPS: 10, Duration: d}
			res, err := RunCtx(t.Context(), cfg, tr, socialTube(t, tr), simnet.DefaultConfig(), Options{Load: prof})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
			requests += res.Requests
		}
		held := liveHeap()
		runtime.KeepAlive(results)
		results = nil
		return (held - liveHeap()) / keep, requests / keep
	}
	short, shortReq := perResult(2 * time.Minute)
	long, longReq := perResult(8 * time.Minute)
	t.Logf("retained per Result: %d B at %d requests, %d B at %d requests", short, shortReq, long, longReq)
	if longReq < 3*shortReq {
		t.Fatalf("4x duration served %d requests against %d; the comparison needs ~4x", longReq, shortReq)
	}
	const budget = 16 << 10
	if short > budget || long > budget {
		t.Fatalf("a finished Result retains %d B (%d requests) / %d B (%d requests), budget %d B",
			short, shortReq, long, longReq, budget)
	}
	if long > short+short/2+1024 {
		t.Fatalf("retained bytes grow with the request count: %d B at %d requests, %d B at %d",
			short, shortReq, long, longReq)
	}
}

// TestTimelineRecordAllocFree pins the timeline hot path: filing a request
// into a window that already exists allocates nothing.
func TestTimelineRecordAllocFree(t *testing.T) {
	tl := &Timeline{Width: time.Second}
	// Materialize the windows the loop touches and their histograms'
	// bucket ranges.
	for i := 0; i < 512; i++ {
		w := tl.at(time.Duration(i) * time.Second)
		w.StartupMs.Add(1)
		w.StartupMs.Add(999)
	}
	i := 0
	avg := testing.AllocsPerRun(100_000, func() {
		i++
		w := tl.at(time.Duration(i%512) * time.Second)
		w.Requests++
		w.StartupMs.Add(float64(i % 1000))
	})
	if avg != 0 {
		t.Fatalf("timeline record path allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// stubProto answers every request without allocating: from the local
// cache, a peer or the server, picked by the video id, and as the home
// community of a forwarded lookup, with a hit for every other video.
type stubProto struct {
	scriptedProto
	users int
}

func (p *stubProto) Request(node int, v trace.VideoID) vod.RequestResult {
	switch v % 3 {
	case 0:
		return vod.RequestResult{Source: vod.SourceCache}
	case 1:
		return vod.RequestResult{Source: vod.SourcePeer, Provider: (node + 1) % p.users, Hops: 1, Messages: 2}
	}
	return vod.RequestResult{Source: vod.SourceServer, Messages: 3, PrefixCached: v%2 == 0}
}

func (p *stubProto) RemoteLookup(_ uint64, v trace.VideoID) (provider, hops, msgs int, ok bool) {
	return 0, 1, 4, v%2 == 1
}

// TestSessionChainAllocFree pins the runner's session chain: a view is a
// scheduled value, not a closure, on both partitions and on both hops of a
// cross-community lookup. A protocol that allocates nothing leaves the
// runner one allocation per session, the plan's video list, so the
// mallocs a run adds per added request stay at 1/VideosPerSession. It
// used to allocate a closure for every finish event and two for every
// remote lookup. A chain record also stays at 48 bytes per node.
func TestSessionChainAllocFree(t *testing.T) {
	if size := unsafe.Sizeof(chain{}); size > 48 {
		t.Fatalf("a chain record is %d B, budget 48 B", size)
	}
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.VideosPerSession = 8
	cfg.Horizon = 0
	run := map[string]func(cfg Config) (*Result, error){
		"identity": func(cfg Config) (*Result, error) {
			return Run(cfg, tr, &stubProto{users: len(tr.Users)}, simnet.DefaultConfig())
		},
		"category": func(cfg Config) (*Result, error) {
			factory := func(_ int, cellTr *trace.Trace) (vod.Protocol, error) {
				return &stubProto{users: len(cellTr.Users)}, nil
			}
			return RunSharded(cfg, tr, factory, simnet.DefaultConfig(), ShardedOptions{Workers: 1})
		},
	}
	for _, name := range []string{"identity", "category"} {
		measure := func(sessions int) (mallocs uint64, requests int64) {
			cfg := cfg
			cfg.Sessions = sessions
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := run[name](cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if name == "category" && res.Sharded.RemoteHits == 0 {
				t.Fatal("category: no remote lookup answered, the test misses the remote leg")
			}
			return after.Mallocs - before.Mallocs, res.Requests
		}
		const sessions = 2
		m1, r1 := measure(sessions)
		m4, r4 := measure(4 * sessions)
		perReq := float64(m4-m1) / float64(r4-r1)
		t.Logf("%s: %d mallocs over %d requests, %d over %d: %.3f per added request", name, m1, r1, m4, r4, perReq)
		if perReq > 0.2 {
			t.Errorf("%s: %.3f mallocs per added request, want ≤ 0.2 (one plan per session of %d videos)",
				name, perReq, cfg.VideosPerSession)
		}
	}
}

// TestFaultArmingAllocFree pins how a fault plan is armed: each event is
// scheduled as its index into the compiled schedule on the runner's one
// fault handler, so arming a plan of over 1,000 events allocates O(1)
// beyond compiling it. It used to allocate a closure per event.
func TestFaultArmingAllocFree(t *testing.T) {
	tr := expTrace(t)
	plan := &faults.Plan{Seed: 3}
	for i := 1; i <= 600; i++ {
		plan.Outages = append(plan.Outages, faults.Outage{At: time.Duration(i) * time.Minute, Duration: 30 * time.Second})
	}
	mallocs := func(f func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	events := 0
	compile := mallocs(func() error {
		sched, err := plan.Compile(len(tr.Users))
		if err == nil {
			events = len(sched.Events)
		}
		return err
	})
	if events < 1000 {
		t.Fatalf("the plan compiles to %d events, the test needs at least 1,000", events)
	}
	r := testRunner(t, quickConfig(), tr, socialTube(t, tr))
	// Grow the event heap past the schedule first: its growth is the
	// engine's, not the arming's.
	for i := 0; i < 2*events; i++ {
		r.engine.Schedule(0, func(time.Duration, uint64) {}, 0)
	}
	if err := r.engine.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	arm := mallocs(func() error { return r.scheduleFaults(plan) })
	t.Logf("compiling %d events: %d mallocs; arming them: %d", events, compile, arm)
	if arm > compile+8 {
		t.Fatalf("arming %d fault events made %d mallocs, %d beyond compiling them; want at most 8",
			events, arm, arm-compile)
	}
}
