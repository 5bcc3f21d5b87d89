package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
)

// logf writes the human-readable account of a run to standard error;
// standard output carries only the machine-readable lines.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runner is one workload. The harness owns the order of calls: setUp a
// fixed number of times (timed; the last one's products are kept), then
// rounds of measured work, then report.
type runner interface {
	// setUp generates the inputs from the seed and builds the program
	// state the workload needs; it may be called again after tearDown.
	setUp() error
	// tearDown releases what setUp started (listeners, goroutines).
	tearDown()
	// round runs the workload's fixed unit of work once and checks its
	// outputs. tr is nil on the untraced pass.
	round(tr *tracing) (*round, error)
	// report fills the record with the workload's own metrics; traced is
	// nil when no traced pass ran.
	report(rec *record, untraced, traced []*round)
	// population is the trace the last set-up generated.
	population() *trace.Trace
}

// populationSeed generates every workload's trace. The population — the
// catalog and who subscribes to what — is a fixture, like a dataset: it is
// generated from source on every set-up, but from this constant, while
// -seed drives everything that happens on it (session plans, arrivals,
// protocol and network randomness). Traces of different seeds differ in
// shape (cell sizes alone moved sim-sharded by 25 %), which would widen
// every bound without measuring the program any better.
const populationSeed = 1

// smoker is implemented by workloads with a correctness check that runs
// outside every timed section.
type smoker interface {
	smoke(rec *record) error
}

// round is the outcome of one unit of measured work.
type round struct {
	Requests int64 // operations attempted
	Failed   int64 // operations the program got wrong or could not complete
	// Parts are the round's timed sections (each preceded by a GC),
	// under the same names in every round.
	Parts   []part
	Gates   []string          // correctness checks that failed
	Digests map[string]string // simulator legs only
	Legs    []simLeg          // simulator workloads
	Modes   []emuMode         // emulation workloads
}

// part is one timed section of a round: a protocol leg, a load column or
// an emulation mode.
type part struct {
	Name string
	Wall time.Duration
}

// steadyWall is the rounds' wall time with each part taken as its median
// over the rounds, so that a disturbance during one round's leg does not
// move the result.
func steadyWall(rs []*round) time.Duration {
	var total float64
	for i := range rs[0].Parts {
		var walls []float64
		for _, r := range rs {
			walls = append(walls, r.Parts[i].Wall.Seconds())
		}
		total += median(walls)
	}
	return time.Duration(total * float64(time.Second))
}

func (r *round) leg(name string) *simLeg {
	for i := range r.Legs {
		if r.Legs[i].Name == name {
			return &r.Legs[i]
		}
	}
	panic("bench: round has no leg " + name)
}

// workloadDef names a workload and says why it is in the set.
type workloadDef struct {
	Name string
	Loop string // how load is generated
	Why  string
	// SetupReps is how many back-to-back set-ups setup_s is the median of.
	SetupReps int
	New       func(seed int64, quick bool) runner
}

var workloads = []workloadDef{
	{wSimClosed, "closed loop, 10 000 users, one thread", "protocol- and network-model-bound: where flood, probe and latency-model work shows and sharding does nothing", 15, newSimClosed},
	{wSimSharded, "closed loop, 100 000 users, one worker per core", "memory-, partition- and barrier-bound: cell size, GC and load imbalance set the cost; the only workload using more than one core", 5, newSimSharded},
	{wSimOpen, "open loop, Poisson arrivals in simulated time at 4-36 requests/s", "arrival chain, bounded admission queue and shedding: the only workload whose simulated tail moves with admission policy", 41, newSimOpen},
	{wEmuSteady, "closed loop, 128 peers over loopback TCP, one driver per core", "read-dominated: lookups, floods and chunk fetches measure dial-per-RPC, wire codec and tracker handling", 25, newEmuSteady},
	{wEmuChurn, "closed loop, 128 peers on a 2x2 tracker plane, one video per session", "write-dominated: register/leave broadcast, member-table merge and full-snapshot gossip on the same layers", 25, newEmuChurn},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tracing is the traced pass's state: the coarse span log, the span new
// ones nest under, and the heap sampler. A nil *tracing is the untraced
// pass, on which every method is a no-op.
type tracing struct {
	log    *spanLog
	parent int
	heap   *heapSampler
}

func (t *tracing) start(name string) int {
	if t == nil {
		return 0
	}
	return t.log.start(t.parent, name)
}

// under returns a view of t whose new spans nest under the given span.
func (t *tracing) under(span int) *tracing {
	if t == nil {
		return nil
	}
	return &tracing{log: t.log, parent: span, heap: t.heap}
}

func (t *tracing) end(id int) {
	if t != nil {
		t.log.end(id)
	}
}

// memDelta is what the Go runtime did during a timed section.
type memDelta struct {
	AllocBytes, Mallocs uint64
	GCCycles            uint32
	GCPause             time.Duration
	HeapLivePeak        uint64
}

func (m *memDelta) add(o memDelta) {
	m.AllocBytes += o.AllocBytes
	m.Mallocs += o.Mallocs
	m.GCCycles += o.GCCycles
	m.GCPause += o.GCPause
	if o.HeapLivePeak > m.HeapLivePeak {
		m.HeapLivePeak = o.HeapLivePeak
	}
}

// memBefore snapshots the runtime's counters (traced pass only:
// ReadMemStats stops the world).
func (t *tracing) memBefore() *runtime.MemStats {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heap.reset()
	return &ms
}

func (t *tracing) memAfter(before *runtime.MemStats) memDelta {
	if t == nil {
		return memDelta{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{
		AllocBytes:   ms.TotalAlloc - before.TotalAlloc,
		Mallocs:      ms.Mallocs - before.Mallocs,
		GCCycles:     ms.NumGC - before.NumGC,
		GCPause:      time.Duration(ms.PauseTotalNs - before.PauseTotalNs),
		HeapLivePeak: t.heap.peak(),
	}
}

// heapSampler tracks the largest live heap (bytes marked by the last GC)
// seen since reset, sampled every 50 ms.
type heapSampler struct {
	mu   sync.Mutex
	max  uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					h.mu.Lock()
					if v := sample[0].Value.Uint64(); v > h.max {
						h.max = v
					}
					h.mu.Unlock()
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) reset() {
	h.mu.Lock()
	h.max = 0
	h.mu.Unlock()
}

func (h *heapSampler) peak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runOptions are one run's arguments.
type runOptions struct {
	Seed    int64
	Seconds int
	Traced  bool
	Quick   bool
	OutDir  string // where span files go
}

// rounds repeats the workload's unit of work for about budget: at least
// once, and again only while another round of the last one's length still
// fits. Every round is the same deterministic work, so their digests must
// agree.
func rounds(w runner, tr *tracing, budget time.Duration) ([]*round, error) {
	var out []*round
	var spent time.Duration
	for {
		sp := tr.start(fmt.Sprintf("round%d", len(out)+1))
		start := time.Now()
		r, err := w.round(tr.under(sp))
		took := time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		spent += took
		if spent+took > budget {
			return out, nil
		}
	}
}

// runWorkload measures one workload once and returns its record.
func runWorkload(def workloadDef, opt runOptions) (*record, error) {
	rec := &record{
		Workload: def.Name, Traced: opt.Traced, Quick: opt.Quick, Seconds: opt.Seconds,
		Stamp: newStamp(opt.Seed), Metrics: map[string]value{}, Digests: map[string]string{},
	}
	logf("== %s (%s) seed %d, %s", def.Name, def.Loop, opt.Seed, map[bool]string{false: "untraced", true: "untraced + traced"}[opt.Traced])
	var tr *tracing
	if opt.Traced {
		tr = &tracing{log: newSpanLog()}
		tr.parent = tr.log.start(0, def.Name)
	}
	w := def.New(opt.Seed, opt.Quick)

	// Set-up, several times back to back: one set-up is too short to
	// time steadily, and work moved into set-up must show.
	reps := def.SetupReps
	if opt.Quick {
		reps = 1
	}
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.tearDown()
		}
		sp := tr.start(fmt.Sprintf("setup%d", i+1))
		runtime.GC()
		start := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		tr.end(sp)
	}
	defer w.tearDown()
	rec.set("setup_s", median(setups), len(setups))
	logf("  set-up: median %.3fs of %d", median(setups), len(setups))

	if s, ok := w.(smoker); ok {
		if err := s.smoke(rec); err != nil {
			return nil, fmt.Errorf("%s smoke: %w", def.Name, err)
		}
	}

	// The untraced pass gives every end-to-end number.
	budget := time.Duration(opt.Seconds) * time.Second
	if opt.Quick {
		budget = 0 // one round
	}
	cpu0 := cpuTime()
	untraced, err := rounds(w, nil, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	cpu := cpuTime() - cpu0
	rss := rssPeakMB()

	for i, r := range untraced {
		rec.Attempted += r.Requests
		rec.Failed += r.Failed
		rec.Gates = append(rec.Gates, r.Gates...)
		rec.gate(r.Requests == untraced[0].Requests, "round %d made %d requests, round 1 made %d", i+1, r.Requests, untraced[0].Requests)
		for leg, d := range r.Digests {
			rec.gate(i == 0 || untraced[0].Digests[leg] == d, "%s: result digest differs between rounds 1 and %d of one seed", leg, i+1)
		}
	}
	rec.Rounds = len(untraced)
	rec.Digests = untraced[0].Digests
	wall := steadyWall(untraced)
	rec.set("req_per_s", float64(untraced[0].Requests)/wall.Seconds(), len(untraced))
	rec.set("cpu_us_per_req", float64(cpu.Microseconds())/float64(rec.Attempted), int(rec.Attempted))
	rec.set("rss_peak_mb", rss, 1)
	rec.set("failed_frac", ratio(float64(rec.Failed), float64(rec.Attempted)), int(rec.Attempted))

	// The traced pass repeats the work with the decorator on; its wall
	// time is used only for the tracing overhead.
	var traced []*round
	if opt.Traced {
		tr.heap = startHeapSampler()
		traced, err = rounds(w, tr, budget)
		tr.heap.close()
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", def.Name, err)
		}
		for _, r := range traced {
			rec.Gates = append(rec.Gates, r.Gates...)
			for leg, d := range r.Digests {
				rec.gate(rec.Digests[leg] == d, "%s: traced result digest differs from untraced (the decorator perturbed the simulation)", leg)
			}
		}
		rec.set("bench.trace_overhead_frac", (steadyWall(traced)-wall).Seconds()/wall.Seconds(), len(traced))
	}
	w.report(rec, untraced, traced)
	if opt.Traced {
		sp := tr.start("probes")
		runProbes(def.Name, w, rec, opt.Quick)
		tr.end(sp)
		tr.log.end(tr.parent)
		path := filepath.Join(opt.OutDir, "trace-"+def.Name+".jsonl")
		if err := tr.log.write(path); err != nil {
			return nil, err
		}
		logf("  spans: %s", path)
	}
	rec.Correct = len(rec.Gates) == 0
	return rec, nil
}
