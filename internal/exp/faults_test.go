package exp

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// testPlan stresses a quickConfig workload: the churn wave, outage and
// burst all land inside the first hour, where sessions are dense.
func testPlan(seed int64) *faults.Plan {
	return faults.ChurnPlan(seed, 4*time.Minute)
}

func runWithPlan(t *testing.T, tr *trace.Trace, proto vod.Protocol, plan *faults.Plan) *Result {
	t.Helper()
	res, err := RunCtx(context.Background(), quickConfig(), tr, proto, simnet.DefaultConfig(), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultPlanDeterministic pins the acceptance criterion: the same
// seed and plan produce a bit-identical Result (counter snapshot
// included) run over run.
func TestFaultPlanDeterministic(t *testing.T) {
	tr := expTrace(t)
	a := runWithPlan(t, tr, socialTube(t, tr), testPlan(5))
	b := runWithPlan(t, tr, socialTube(t, tr), testPlan(5))
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("same plan+seed produced different results:\n%s\nvs\n%s", ja, jb)
	}
	if a.Obs != b.Obs {
		t.Fatal("counter snapshots diverged")
	}
	if a.Resilience.Crashes == 0 {
		t.Fatal("plan applied no crashes; the determinism check is vacuous")
	}
}

// TestHealthyRunUnchangedByFaultSupport pins that RunCtx with zero
// Options is bit-identical to the legacy Run path.
func TestHealthyRunUnchangedByFaultSupport(t *testing.T) {
	tr := expTrace(t)
	legacy := runProto(t, tr, socialTube(t, tr))
	ctxed, err := RunCtx(context.Background(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	jl, _ := json.Marshal(legacy)
	jc, _ := json.Marshal(ctxed)
	if string(jl) != string(jc) {
		t.Fatal("healthy RunCtx diverged from Run")
	}
	rz := legacy.Resilience
	if rz.Crashes != 0 || rz.RequestsDuringFaults != 0 || rz.RepairLatencyMs.Len() != 0 {
		t.Fatal("healthy run recorded resilience activity")
	}
}

// TestFaultsDegradeAndRepair checks the fault machinery end to end on
// SocialTube: crashes and rejoins happen, repair rounds run, repair
// latency is sampled and fault-time hit rate is measured.
func TestFaultsDegradeAndRepair(t *testing.T) {
	tr := expTrace(t)
	res := runWithPlan(t, tr, socialTube(t, tr), testPlan(5))
	rz := res.Resilience
	if rz.Crashes == 0 || rz.Rejoins == 0 {
		t.Fatalf("no churn applied: %+v", rz)
	}
	if rz.Rejoins > rz.Crashes {
		t.Fatalf("more rejoins (%d) than crashes (%d)", rz.Rejoins, rz.Crashes)
	}
	if rz.RepairRounds == 0 {
		t.Fatal("SocialTube ran no repair rounds")
	}
	if rz.RepairMsgs == 0 {
		t.Fatal("repair rounds exchanged no messages")
	}
	if rz.RepairLatencyMs.Len() == 0 {
		t.Fatal("no repair latency samples")
	}
	if maxMs := rz.RepairLatencyMs.Max(); maxMs > float64(testPlan(5).DetectDelay/time.Millisecond) {
		t.Fatalf("repair latency %v ms exceeds the plan's detection delay", maxMs)
	}
	if rz.RequestsDuringFaults == 0 {
		t.Fatal("no requests overlapped the fault windows; plan timing is off")
	}
	if hr := rz.HitRateUnderFaults(); hr <= 0 || hr > 1 {
		t.Fatalf("hit rate under faults %v outside (0,1]", hr)
	}
	if res.Obs.RepairCalls == 0 || res.Obs.OverlayFails == 0 {
		t.Fatalf("protocol counters missed the churn: %+v", res.Obs)
	}
}

// TestBaselineRunsUnderSamePlan ensures protocols without repair hooks
// survive the identical plan (they recover via probing alone).
func TestBaselineRunsUnderSamePlan(t *testing.T) {
	tr := expTrace(t)
	for _, proto := range []vod.Protocol{netTube(t, tr), paVoD(t, tr)} {
		res := runWithPlan(t, tr, proto, testPlan(5))
		rz := res.Resilience
		if rz.Crashes == 0 {
			t.Fatalf("%s: no crashes applied", proto.Name())
		}
		if rz.RepairRounds != 0 || rz.RepairMsgs != 0 {
			t.Fatalf("%s: baseline reported repair work: %+v", proto.Name(), rz)
		}
		if rz.OrphanFraction.Len() == 0 {
			t.Fatalf("%s: orphan fraction never sampled", proto.Name())
		}
	}
}

// TestOutageDefersServerRequests pins the graceful-fallback model: an
// outage window defers (never drops) server requests.
func TestOutageDefersServerRequests(t *testing.T) {
	tr := expTrace(t)
	plan := &faults.Plan{
		Seed:    3,
		Outages: []faults.Outage{{At: 2 * time.Minute, Duration: 20 * time.Minute}},
	}
	res := runWithPlan(t, tr, socialTube(t, tr), plan)
	if res.Resilience.ServerDeferred == 0 {
		t.Fatal("20-minute outage deferred no server requests")
	}
	total := res.CacheHits.Value() + res.PeerHits.Value() + res.ServerHits.Value()
	if total != res.Requests {
		t.Fatalf("requests lost during outage: %d served of %d", total, res.Requests)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	tr := expTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// cancelAt cancels its context from inside the at-th request.
type cancelAt struct {
	vod.Protocol
	n, at  int
	cancel context.CancelFunc
}

func (p *cancelAt) Request(node int, v trace.VideoID) vod.RequestResult {
	if p.n++; p.n == p.at {
		p.cancel()
	}
	return p.Protocol.Request(node, v)
}

// TestRunCtxCancelsMidRun: a one-cell run has no barrier to notice a
// cancellation at, so its loop must check the context itself, every few
// hundred events — the run stops promptly with context.Canceled instead of
// finishing the workload.
func TestRunCtxCancelsMidRun(t *testing.T) {
	tr := expTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancelAt{Protocol: socialTube(t, tr), at: 500, cancel: cancel}
	res, err := RunCtx(ctx, quickConfig(), tr, p, simnet.DefaultConfig(), Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("run = %v, %v; want nil, context.Canceled", res, err)
	}
	// Every request is at least one event, and the loop checks the context
	// every 256 events.
	if p.n > p.at+256 {
		t.Fatalf("%d requests served after a cancellation at request %d", p.n, p.at)
	}
}

// TestPartitionedRunRefusesFaultPlan: a fault plan names global node ids,
// which a per-community cell cannot resolve, so the driver must refuse the
// plan on more than one cell — it used to be dropped on the way to the
// engine and the run came back healthy. RunSharded cannot be handed a plan
// at all (ShardedOptions has none); this holds the driver under it to the
// same rule.
func TestPartitionedRunRefusesFaultPlan(t *testing.T) {
	tr := expTrace(t)
	cells, router, err := categoryCells(shardedConfig(), tr, socialTubeFactory(1), simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 2 {
		t.Fatalf("category partition has %d cells; want more than one", len(cells))
	}
	res, err := drive(context.Background(), tr, cells, Options{Faults: testPlan(1)}, 1, router)
	if !errors.Is(err, dist.ErrBadParameter) || res != nil {
		t.Fatalf("run = %v, %v; want nil and a wrapped dist.ErrBadParameter", res, err)
	}
	if !strings.Contains(err.Error(), "fault plan") {
		t.Fatalf("error %q does not name the unsupported combination", err)
	}
}

func TestRunCtxRejectsBadPlan(t *testing.T) {
	tr := expTrace(t)
	bad := &faults.Plan{Waves: []faults.ChurnWave{{At: time.Second}}}
	if _, err := RunCtx(context.Background(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(), Options{Faults: bad}); err == nil {
		t.Fatal("invalid plan accepted")
	}
	// One global tracker state has no side to cut off: a partition is
	// refused, not run as a healthy window.
	split := faults.PartitionPlan(3, 10*time.Minute, 2)
	res, err := RunCtx(context.Background(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(), Options{Faults: split})
	if !errors.Is(err, dist.ErrBadParameter) || res != nil {
		t.Fatalf("partition plan: run = %v, %v; want nil and a wrapped dist.ErrBadParameter", res, err)
	}
}

// TestNestedOutageEqualsOuter: an outage nested inside another changes
// nothing, since the server is dark either way: the inner outage's end
// must not reopen the server while the outer one holds it dark.
func TestNestedOutageEqualsOuter(t *testing.T) {
	tr := expTrace(t)
	outer := faults.Outage{At: 2 * time.Minute, Duration: 20 * time.Minute}
	inner := faults.Outage{At: 5 * time.Minute, Duration: 2 * time.Minute}
	a := runWithPlan(t, tr, socialTube(t, tr), &faults.Plan{Seed: 3, Outages: []faults.Outage{outer}})
	b := runWithPlan(t, tr, socialTube(t, tr), &faults.Plan{Seed: 3, Outages: []faults.Outage{outer, inner}})
	b.Engine = a.Engine // b's engine also fired the inner outage's two events
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("nested outage moved the run: deferred %d → %d, fault-time requests %d → %d",
			a.Resilience.ServerDeferred, b.Resilience.ServerDeferred,
			a.Resilience.RequestsDuringFaults, b.Resilience.RequestsDuringFaults)
	}
	if a.Resilience.ServerDeferred == 0 {
		t.Fatal("the outage deferred nothing; the comparison is vacuous")
	}
}

// TestChaosWindowInSimulator: the simulator books a chaos window's
// corrupted frames as lost deliveries, and its duplicated ones as harmless.
func TestChaosWindowInSimulator(t *testing.T) {
	tr := expTrace(t)
	healthy := runWithPlan(t, tr, socialTube(t, tr), nil)
	chaos := func(c faults.ChaosBurst) *Result {
		c.At, c.Duration = 2*time.Minute, 20*time.Minute
		return runWithPlan(t, tr, socialTube(t, tr), &faults.Plan{Seed: 3, Chaos: []faults.ChaosBurst{c}})
	}
	if rz := chaos(faults.ChaosBurst{CorruptP: 0.5}).Resilience; rz.ChaosFailures == 0 {
		t.Fatalf("a CorruptP 0.5 window lost no delivery: %+v", rz)
	}
	dup := chaos(faults.ChaosBurst{DuplicateP: 0.5})
	if rz := dup.Resilience; rz.ChaosFailures != 0 || rz.RequestsDuringFaults == 0 {
		t.Fatalf("a DuplicateP window: %d chaos failures over %d fault-time requests, want 0 over > 0",
			rz.ChaosFailures, rz.RequestsDuringFaults)
	}
	if got, want := dup.PeerHits.Value(), healthy.PeerHits.Value(); got != want {
		t.Fatalf("a DuplicateP window moved peer hits %d → %d", want, got)
	}
}

// TestRunnerWindowIsTheFold: through a whole run, the runner's window at
// every event instant equals the plan's schedule folded through
// faults.Window.Apply, for a plan with every window kind the simulator
// runs, overlapping outages and touching bursts.
func TestRunnerWindowIsTheFold(t *testing.T) {
	tr := expTrace(t)
	plan := testPlan(3)
	plan.Outages = append(plan.Outages, faults.Outage{At: 7 * time.Minute, Duration: 20 * time.Minute},
		faults.Outage{At: 8 * time.Minute, Duration: time.Minute, Shard: 1})
	plan.Bursts = append(plan.Bursts, faults.LinkBurst{At: 11 * time.Minute, Duration: time.Minute, LatencyFactor: 0.5})
	plan.Chaos = []faults.ChaosBurst{{At: 9 * time.Minute, Duration: 4 * time.Minute, CorruptP: 0.2, DuplicateP: 0.1}}
	r := testRunner(t, quickConfig(), tr, socialTube(t, tr))
	if err := r.arm(Options{Faults: plan}); err != nil {
		t.Fatal(err)
	}
	sched, err := plan.Compile(len(tr.Users))
	if err != nil {
		t.Fatal(err)
	}
	// The runner's own fault events are queued first, so at each instant
	// they all fire before its check.
	var fold faults.Window
	checks := 0
	for i, ev := range sched.Events {
		r.engine.At(ev.At, func(now time.Duration) {
			fold.Apply(ev)
			if i+1 < len(sched.Events) && sched.Events[i+1].At == now {
				return
			}
			if checks++; r.win != fold {
				t.Fatalf("at %v: runner window %+v, fold %+v", now, r.win, fold)
			}
		})
	}
	if err := r.engine.Run(quickConfig().Horizon, 0); err != nil {
		t.Fatal(err)
	}
	if checks == 0 || fold.Open() {
		t.Fatalf("%d checks, windows open at the end: %v", checks, fold.Open())
	}
}
