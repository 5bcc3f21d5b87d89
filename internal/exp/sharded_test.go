package exp

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// TestSharedPickerDrawsAsCellPickers: drive builds one vod.Picker over the
// partition's parent trace and every cell draws its sessions from it. A
// picker reads only the catalog the cells share, so for every cell user the
// parent's picker must plan exactly the sessions a picker over that cell's
// own trace plans under the same per-user seed. Two goroutines then plan
// every user's sessions from one fresh shared picker at once, in opposite
// orders; each must get the sequential plans, and under -race a picker
// that fills a cache lazily without a lock fails here.
func TestSharedPickerDrawsAsCellPickers(t *testing.T) {
	tr := expTrace(t)
	part, err := trace.PartitionByCategory(tr)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(p *vod.Picker, u *trace.User, gid trace.UserID) vod.SessionPlan {
		return p.PlanSession(dist.NewRNG(int64(gid)+1), u, 12, 500*time.Second)
	}
	parent := testPicker(t, tr)
	want := make([]vod.SessionPlan, len(tr.Users))
	for _, c := range part.Cells {
		if len(c.Users) == 0 {
			continue
		}
		own := testPicker(t, c.Trace)
		for li, gid := range c.Users {
			u := &c.Trace.Users[li]
			want[gid] = plan(own, u, gid)
			if got := plan(parent, u, gid); !slices.Equal(got.Videos, want[gid].Videos) || got.OffTime != want[gid].OffTime {
				t.Fatalf("cell %d user %d: parent picker plans %v, the cell's own %v", c.Cell, gid, got, want[gid])
			}
		}
	}
	shared := testPicker(t, tr)
	var wg sync.WaitGroup
	for _, step := range []int{1, -1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range tr.Users {
				i := k
				if step < 0 {
					i = len(tr.Users) - 1 - k
				}
				got := plan(shared, &tr.Users[i], trace.UserID(i))
				if !slices.Equal(got.Videos, want[i].Videos) || got.OffTime != want[i].OffTime {
					t.Errorf("concurrent user %d: plans %v, sequential %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// socialTubeFactory builds one SocialTube instance per community cell,
// seeding each cell's protocol RNG from its cell id.
func socialTubeFactory(seed int64) CellProtocol {
	return func(cell int, cellTr *trace.Trace) (vod.Protocol, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed*1_000_003 + int64(cell+1)
		return core.New(cfg, cellTr)
	}
}

func netTubeFactory(seed int64) CellProtocol {
	return func(cell int, cellTr *trace.Trace) (vod.Protocol, error) {
		cfg := baseline.DefaultNetTubeConfig()
		cfg.Seed = seed*1_000_003 + int64(cell+1)
		return baseline.NewNetTube(cfg, cellTr)
	}
}

func shardedConfig() Config {
	cfg := DefaultConfig()
	cfg.Sessions = 2
	cfg.VideosPerSession = 5
	cfg.WatchScale = 0.05
	cfg.MeanOffTime = 60 * time.Second
	cfg.Horizon = 12 * time.Hour
	return cfg
}

func runSharded(t *testing.T, workers int) *Result {
	t.Helper()
	tr := expTrace(t)
	res, err := RunSharded(shardedConfig(), tr, socialTubeFactory(1), simnet.DefaultConfig(),
		ShardedOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// determinismTable is the package's one statement of determinism: every
// {partition × option variant} row, run under worker counts {1, 1, 2, 4, 8}
// — a rerun, then from the fully sequential loop to more workers than cores
// — must marshal to byte-identical JSON. The worker count decides only
// which OS thread advances which cell's loop; it must never leak into
// results. The identity partition has one cell, so its rows are the
// same-seed rerun pin; the category partition's — plain, the one run it
// takes — is the worker-count invariance pin, the same code checking both.
var determinismTable = []struct {
	partition string // "identity" or "category"
	variant   goldenVariant
}{
	{"identity", goldenVariant{name: "plain"}},
	{"identity", goldenVariant{name: "timeline", window: 30 * time.Minute}},
	{"identity", goldenVariant{name: "load", prof: flashProfile()}},
	{"category", goldenVariant{name: "plain"}},
}

func flashProfile() *load.Profile {
	return &load.Profile{
		Mode: load.Steady, Seed: 5, RPS: 20, Duration: 45 * time.Second,
		Flash: &load.FlashCrowd{Channel: 1, At: 10 * time.Second, For: 10 * time.Second},
	}
}

// runPartition runs SocialTube over one partition through the driver, so
// the identity partition takes a worker count too.
func runPartition(t *testing.T, tr *trace.Trace, partition string, v goldenVariant, workers int) *Result {
	t.Helper()
	cfg, netCfg := shardedConfig(), simnet.DefaultConfig()
	if v.prof != nil {
		cfg = openLoopConfig()
		netCfg.ServerQueueCap = 8
	}
	var (
		res *Result
		err error
	)
	if partition == "identity" {
		lone := []cell{{cfg: cfg, tr: tr, proto: socialTube(t, tr), net: netCfg}}
		res, err = drive(t.Context(), tr, lone, Options{TimelineWindow: v.window, Load: v.prof}, workers, nil)
	} else {
		res, err = RunSharded(cfg, tr, socialTubeFactory(1), netCfg, ShardedOptions{Workers: workers})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkDeterminism runs the table's rows for one partition.
func checkDeterminism(t *testing.T, partition string) {
	tr := expTrace(t)
	for _, row := range determinismTable {
		if row.partition != partition {
			continue
		}
		t.Run(row.partition+"/"+row.variant.name, func(t *testing.T) {
			ref := runPartition(t, tr, row.partition, row.variant, 1)
			if ref.Requests == 0 {
				t.Fatal("reference run issued no requests")
			}
			if (ref.Sharded != nil) != (row.partition == "category") {
				t.Fatalf("sharded block present = %v on the %s partition", ref.Sharded != nil, row.partition)
			}
			if row.variant.window > 0 {
				// The per-window request counts must re-sum to the run
				// total.
				if ref.Timeline == nil || len(ref.Timeline.Windows) == 0 {
					t.Fatal("timeline run recorded no windows")
				}
				var total int64
				for _, w := range ref.Timeline.Windows {
					total += w.Requests
				}
				if total != ref.Requests {
					t.Fatalf("timeline windows sum to %d requests, run counted %d", total, ref.Requests)
				}
			}
			if (ref.Load != nil) != (row.variant.prof != nil) {
				t.Fatalf("load block present = %v", ref.Load != nil)
			}
			refJSON, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := json.Marshal(runPartition(t, tr, row.partition, row.variant, workers))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(refJSON) {
					t.Fatalf("workers=%d result diverged from the sequential reference\nseq: %s\ngot: %s",
						workers, refJSON, got)
				}
			}
		})
	}
}

// The table's two entry points keep the names the rows were first pinned
// under: same-seed reruns of the one-cell run, and worker-count invariance
// of the per-community one.
func TestDeterministicUnderSeed(t *testing.T) { checkDeterminism(t, "identity") }

func TestShardedWorkerCountInvariance(t *testing.T) { checkDeterminism(t, "category") }

// TestShardedAccountingConsistency checks the merged result's internal
// arithmetic: hits partition the requests, remote accounting is coherent,
// and the per-shard load block covers every cell.
func TestShardedAccountingConsistency(t *testing.T) {
	res := runSharded(t, 0) // default worker count
	if res.Sharded == nil {
		t.Fatal("sharded run returned no ShardedInfo")
	}
	hits := res.CacheHits.Value() + res.PeerHits.Value() + res.ServerHits.Value()
	if hits != res.Requests {
		t.Fatalf("hits %d != requests %d", hits, res.Requests)
	}
	info := res.Sharded
	if info.Cells != 10 { // expTrace uses 10 categories
		t.Fatalf("cells %d, want 10", info.Cells)
	}
	if len(info.ShardLoad) != info.Cells {
		t.Fatalf("shard load has %d entries for %d cells", len(info.ShardLoad), info.Cells)
	}
	if info.RemoteLookups == 0 {
		t.Fatal("no cross-community lookups in a multi-category workload (75/15/10 behavior guarantees some)")
	}
	if info.RemoteHits > info.RemoteLookups {
		t.Fatalf("remote hits %d exceed lookups %d", info.RemoteHits, info.RemoteLookups)
	}
	if info.RemoteHits > 0 && info.RemoteBytes == 0 {
		t.Fatal("remote hits served zero bytes")
	}
	var fired uint64
	for _, s := range info.ShardLoad {
		fired += s.EventsFired
	}
	if fired != res.Engine.EventsFired {
		t.Fatalf("per-shard events %d != merged %d", fired, res.Engine.EventsFired)
	}
	if res.SimulatedTime <= 0 || res.SimulatedTime > shardedConfig().Horizon {
		t.Fatalf("simulated time %v outside (0, horizon]", res.SimulatedTime)
	}
}

// cellSpans records which cells' span ranges a run's trace events carry.
type cellSpans struct {
	mu    sync.Mutex
	cells map[uint64]bool
}

func (c *cellSpans) Emit(e obs.Event) {
	if e.Span != 0 {
		c.mu.Lock()
		c.cells[e.Span>>40] = true
		c.mu.Unlock()
	}
}

// TestShardedRunInstallsTheTracerOnEveryCell: a tracer the cell factory
// installs (obs.Traceable.SetTracer) sees every cell's requests, under span
// ranges disjoint per cell, and tracing changes no result byte.
func TestShardedRunInstallsTheTracerOnEveryCell(t *testing.T) {
	tr := expTrace(t)
	tracer := &cellSpans{cells: map[uint64]bool{}}
	run := func(tc obs.Tracer) []byte {
		t.Helper()
		factory := func(cell int, cellTr *trace.Trace) (vod.Protocol, error) {
			p, err := socialTubeFactory(1)(cell, cellTr)
			if err == nil && tc != nil {
				p.(obs.Traceable).SetTracer(tc)
			}
			return p, err
		}
		res, err := RunSharded(shardedConfig(), tr, factory, simnet.DefaultConfig(), ShardedOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	traced, plain := run(tracer), run(nil)
	if len(tracer.cells) != 10 { // expTrace's 10 categories are all populated
		t.Fatalf("trace carries spans of %d cells, want all 10", len(tracer.cells))
	}
	if string(traced) != string(plain) {
		t.Fatal("installing a tracer changed the result")
	}
}

// TestShardedBaselineFallsBackToServer: a protocol without RemoteSearcher
// (NetTube) still runs sharded — cross-community misses go to the origin
// community's server instead of crossing the barrier.
func TestShardedBaselineFallsBackToServer(t *testing.T) {
	tr := expTrace(t)
	res, err := RunSharded(shardedConfig(), tr, netTubeFactory(1), simnet.DefaultConfig(), ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharded.RemoteLookups != 0 {
		t.Fatalf("NetTube forwarded %d remote lookups without implementing RemoteSearcher", res.Sharded.RemoteLookups)
	}
	if res.Requests == 0 || res.ServerHits.Value() == 0 {
		t.Fatalf("baseline sharded run: %d requests, %d server hits", res.Requests, res.ServerHits.Value())
	}
}

// TestShardedRejectsBadInputs pins the constructor errors.
func TestShardedRejectsBadInputs(t *testing.T) {
	tr := expTrace(t)
	if _, err := RunSharded(shardedConfig(), tr, nil, simnet.DefaultConfig(), ShardedOptions{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := RunSharded(shardedConfig(), nil, socialTubeFactory(1), simnet.DefaultConfig(), ShardedOptions{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	bad := shardedConfig()
	bad.Sessions = 0
	if _, err := RunSharded(bad, tr, socialTubeFactory(1), simnet.DefaultConfig(), ShardedOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// BenchmarkShardedRun compares the sequential and parallel sharded paths
// over the same workload; the allocs/op column doubles as a regression
// pin on the per-epoch overhead.
func BenchmarkShardedRun(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.Seed = 41
	cfg.Channels = 40
	cfg.Users = 400
	cfg.Categories = 10
	cfg.MaxInterestsPerUser = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSharded(shardedConfig(), tr, socialTubeFactory(1), simnet.DefaultConfig(),
					ShardedOptions{Workers: bench.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
