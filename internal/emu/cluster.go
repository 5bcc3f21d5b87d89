package emu

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// ClusterConfig drives one emulated experiment: a tracker plus Peers TCP
// nodes on loopback running Sessions sessions each — the PlanetLab workload
// of §V scaled to one machine.
type ClusterConfig struct {
	// Peers is the number of TCP nodes (the paper uses 250 PlanetLab
	// nodes; loopback runs scale this down).
	Peers int
	// Sessions per peer (paper: 50 on PlanetLab).
	Sessions int
	// VideosPerSession watched per session (paper: 10).
	VideosPerSession int
	// WatchTime is the emulated playback duration per video.
	WatchTime time.Duration
	// MeanOffTime is the mean off period between sessions.
	MeanOffTime time.Duration
	// ProbeInterval is the neighbour probe period (0 disables probing).
	ProbeInterval time.Duration
	// Seed drives the whole run: the workload, every tracker's
	// recommendations (endpoint i of the plane draws from Seed + i·104,729)
	// and the link conditions' latency, loss and chaos draws.
	Seed int64
	// Peer is the template every peer is a copy of, ID and Seed aside: the
	// protocol they all run (Mode), link budgets, TTL, prefetch count, RPC
	// timeout, retry and breaker policy. Outage experiments want a short
	// RPCTimeout: a down tracker costs the default 3 s per attempt.
	Peer PeerConfig
	// Tracker configures the central server — the template for every
	// tracker replica of the control plane, Seed aside.
	Tracker TrackerConfig
	// ControlPlane shards and replicates the tracker: Shards x Replicas
	// trackers are started, channels map to shards by rendezvous
	// hashing, and peers fail over between a shard's replicas. The zero
	// value is the 1x1 plane: one tracker.
	ControlPlane ControlPlaneConfig
	// Conditions injects latency and loss (nil = pristine loopback). It
	// is a template, Seed aside: each started cluster, lone peer or
	// replica runs a fresh copy, so runs never share windows or draw
	// counters. A run with Faults folds the plan's windows into that copy,
	// a zero-valued one when nil.
	Conditions *Conditions
	// Tracer, when non-nil, receives the run's event stream: one serve
	// event per request (plus handoff/rescue events for mid-stream
	// failovers) and join/leave events per session, emitted by the
	// workload driver. T is the wall-clock offset from the start of the
	// workload in nanoseconds; spans are per-peer request sequences with
	// the peer id in the high bits, mirroring the sharded simulator's
	// per-cell span ranges.
	Tracer obs.Tracer
	// Faults, when non-nil, compiles to a deterministic schedule whose
	// event times are wall-clock offsets from the start of the workload
	// (scale them to WatchTime/MeanOffTime). The same plan drives the
	// simulator, so sim and emu replay identical fault sequences.
	Faults *faults.Plan
	// MetricsAddr, when non-empty, serves live run metrics as JSON on
	// GET <addr>/metrics for the duration of the run ("127.0.0.1:0" picks
	// an ephemeral port).
	MetricsAddr string
	// PprofEnabled additionally mounts net/http/pprof under the metrics
	// listener's /debug/pprof/.
	PprofEnabled bool
	// OnMetricsAddr, when set, is called once with the metrics listener's
	// concrete address as soon as the endpoint is up (before the workload
	// starts), so callers using port 0 can find it.
	OnMetricsAddr func(addr string)
}

// NewClusterConfig returns DefaultClusterConfig(mode) running sessions of
// videos per peer, watch of playback per video and watch of mean off-time
// between sessions, seeded from seed: the run socialtube-emu and
// socialtube-node build from their -sessions, -videos, -watch and -seed.
func NewClusterConfig(mode Mode, sessions, videos int, watch time.Duration, seed int64) ClusterConfig {
	c := DefaultClusterConfig(mode)
	c.Sessions, c.VideosPerSession, c.Seed = sessions, videos, seed
	c.WatchTime, c.MeanOffTime = watch, watch
	return c
}

// DefaultClusterConfig returns a loopback-scaled PlanetLab workload.
func DefaultClusterConfig(mode Mode) ClusterConfig {
	return ClusterConfig{
		Peers:            24,
		Sessions:         2,
		VideosPerSession: 6,
		WatchTime:        40 * time.Millisecond,
		MeanOffTime:      60 * time.Millisecond,
		ProbeInterval:    300 * time.Millisecond,
		Seed:             1,
		Peer:             DefaultPeerConfig(0, mode),
		Tracker:          DefaultTrackerConfig(),
		Conditions:       DefaultConditions(),
	}
}

// Validate reports the first problem with the configuration.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Peers <= 0:
		return fmt.Errorf("%w: peers=%d", dist.ErrBadParameter, c.Peers)
	case c.Sessions <= 0:
		return fmt.Errorf("%w: sessions=%d", dist.ErrBadParameter, c.Sessions)
	case c.VideosPerSession <= 0:
		return fmt.Errorf("%w: videosPerSession=%d", dist.ErrBadParameter, c.VideosPerSession)
	case c.WatchTime < 0 || c.MeanOffTime < 0 || c.ProbeInterval < 0:
		return fmt.Errorf("%w: negative durations", dist.ErrBadParameter)
	}
	if err := c.Peer.Validate(); err != nil {
		return fmt.Errorf("peer template: %w", err)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return c.plane().Validate()
}

// elements returns what cfg's trackers and peers run: the tracker template
// and a fresh copy of the conditions template, both seeded from Seed.
func (c ClusterConfig) elements() (TrackerConfig, *Conditions) {
	tc := c.Tracker
	tc.Seed = c.Seed
	if c.Conditions == nil && c.Faults == nil {
		return tc, nil
	}
	return tc, c.Conditions.fresh(c.Seed)
}

// plane returns the control-plane shape the cluster runs: ControlPlane,
// or 1x1 when it is the zero value.
func (c ClusterConfig) plane() ControlPlaneConfig {
	if c.ControlPlane == (ControlPlaneConfig{}) {
		return ControlPlaneConfig{Shards: 1, Replicas: 1}
	}
	return c.ControlPlane
}

// ClusterResult aggregates one emulated run: the delivery ledger the
// simulator's exp.Result also embeds, plus what only real sockets produce.
type ClusterResult struct {
	Protocol string
	// Ledger is the delivery account (Figs. 16(b)–18(b)); its StartupDelay
	// is wall-clock, and the live /metrics endpoint renders it as a
	// Prometheus histogram.
	vod.Ledger
	// ServerBytes / PeerBytes shipped.
	ServerBytes int64
	PeerBytes   int64
	// FailedRequests counts requests nobody could complete (a tracker
	// outage outlasted the retry budget). They are included in
	// ServerHits, so hit counts still sum to the request total.
	FailedRequests int64
	// OutageRequests / OutageServed measure service while the tracker
	// was down: requests issued during the outage, and how many of
	// those were still delivered (by cache, peers, or late retries).
	OutageRequests int64
	OutageServed   int64
	// Crashes / Rejoins count applied churn events.
	Crashes int64
	Rejoins int64
	// Obs merges the tracker's and every peer's protocol-counter
	// snapshots at the end of the run.
	Obs obs.Counters
	// TakeoverMs is the wall-clock delay between the first whole-shard
	// outage beginning and the first surviving replica declaring the
	// shard dead via gossip liveness — the time-to-takeover the failover
	// figure reports. 0 when the run saw no whole-shard outage or no
	// declaration.
	TakeoverMs float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// LiveMetrics is the JSON document the cluster's /metrics endpoint serves
// while a run is in flight: the whole control plane's view plus the
// workload aggregates collected so far.
type LiveMetrics struct {
	Protocol       string          `json:"protocol"`
	Tracker        TrackerMetrics  `json:"tracker"`
	StartupDelayMs obs.HistSummary `json:"startupDelayMs"`
	CacheHits      int64           `json:"cacheHits"`
	PrefixHits     int64           `json:"prefixHits"`
	PeerHits       int64           `json:"peerHits"`
	ServerHits     int64           `json:"serverHits"`
	Messages       int64           `json:"messages"`
	// Mem reports the trace's deterministic memory footprint;
	// HeapHighWater is the HeapAlloc peak (not yet freed garbage
	// included, so not the live heap), refreshed on every scrape
	// (serialized here explicitly because MemUsage keeps environmental
	// numbers out of its own JSON encoding).
	Mem           obs.MemUsage `json:"mem"`
	HeapHighWater uint64       `json:"heapHighWaterBytes"`
}

func liveMetrics(cfg ClusterConfig, plane *ControlPlane, res *ClusterResult, resMu *sync.Mutex, mem *obs.MemWatermark, traceBytes uint64, users int) LiveMetrics {
	resMu.Lock()
	m := LiveMetrics{
		Protocol:       cfg.Peer.Mode.String(),
		StartupDelayMs: res.StartupDelay.Summary(),
		CacheHits:      res.CacheHits.Value(),
		PrefixHits:     res.PrefixHits.Value(),
		PeerHits:       res.PeerHits.Value(),
		ServerHits:     res.ServerHits.Value(),
		Messages:       res.Messages.Value(),
	}
	resMu.Unlock()
	m.Tracker = metricsOf(plane.Trackers()...)
	m.Mem = obs.MemUsage{
		TraceBytes:   traceBytes,
		BytesPerUser: float64(traceBytes) / float64(users),
	}
	mem.Sample()
	m.HeapHighWater = mem.HighWater()
	return m
}

// faultDriver is the wall-clock fault scheduler's shared state. Peer
// session loops consult it for outage accounting and for the "no rejoin
// is coming" signal; a nil driver (no plan) answers false everywhere.
type faultDriver struct {
	// cond holds the open windows the driver folds every event into.
	cond *Conditions
	// done closes when the last scheduled event has fired (or the run
	// stopped), so a crashed peer whose rejoin will never come can give
	// up instead of waiting forever.
	done chan struct{}
}

func (f *faultDriver) duringOutage() bool {
	return f != nil && f.cond.window().OutageUntil() > 0
}

// waitRejoin blocks while p is crashed. It returns false when the caller
// should abandon the peer's workload: the run stopped, or the fault
// schedule drained with the peer still down (a permanent departure).
func (f *faultDriver) waitRejoin(p *Peer, stop <-chan struct{}) bool {
	for p.IsCrashed() {
		var drained <-chan struct{}
		if f != nil {
			drained = f.done
		}
		select {
		case <-stop:
			return false
		case <-drained:
			return !p.IsCrashed()
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

// setOutage applies an outage event's control-plane targeting: whole
// plane (no targeting), one shard (all replicas), or one replica of one
// shard. Shard/Replica are 1-based in the event; out-of-range targets
// fall back to the widest enclosing scope so a plan written for a bigger
// plane still darkens something rather than silently no-opping.
func setOutage(cp *ControlPlane, ev faults.Event, down bool) {
	if ev.Shard <= 0 || ev.Shard > cp.NumShards() {
		cp.SetDown(down)
		return
	}
	sh := cp.Shard(ev.Shard - 1)
	if ev.Replica <= 0 || ev.Replica > sh.Replicas() {
		sh.SetDown(down)
		return
	}
	if tk := sh.Replica(ev.Replica - 1); tk != nil {
		tk.SetDown(down)
	}
}

// drive replays the schedule's events against the live cluster on
// wall-clock offsets from the workload's start.
func (f *faultDriver) drive(events []faults.Event, w *workload, peers []*Peer, cp *ControlPlane) {
	defer close(f.done)
	for _, ev := range events {
		if !sleepUntil(w.begin.Add(ev.At), w.stop) {
			return
		}
		f.apply(ev, w, peers, cp)
	}
}

// apply folds one event into the conditions' windows; the switch adds what
// only a live cluster does. Repair events are deliberately skipped: in the
// emulator the probe loop is the failure detector, so repair happens
// organically when probes time out on the crashed peer.
func (f *faultDriver) apply(ev faults.Event, w *workload, peers []*Peer, cp *ControlPlane) {
	f.cond.Apply(ev)
	switch ev.Kind {
	case faults.KindCrash:
		if ev.Node >= 0 && ev.Node < len(peers) {
			peers[ev.Node].Crash()
			w.mu.Lock()
			w.res.Crashes++
			w.mu.Unlock()
		}
	case faults.KindRejoin:
		if ev.Node >= 0 && ev.Node < len(peers) {
			peers[ev.Node].Rejoin()
			w.mu.Lock()
			w.res.Rejoins++
			w.mu.Unlock()
		}
	case faults.KindOutageStart:
		if ev.Shard > 0 && ev.Replica == 0 {
			cp.ArmTakeover(time.Now().UnixNano())
		}
		setOutage(cp, ev, true)
	case faults.KindOutageEnd:
		setOutage(cp, ev, false)
	case faults.KindPartitionEnd:
		// The cut is healed: replay every hinted-handoff write the
		// peers queued for replicas on the far side.
		for _, p := range peers {
			p.ReplayHints()
		}
	}
}

// sleepUntil sleeps until the deadline, returning false if stop closed
// first.
func sleepUntil(deadline time.Time, stop <-chan struct{}) bool {
	d := time.Until(deadline)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// Cluster is a started control plane plus cfg.Peers copies of the peer
// template. RunClusterCtx drives it with session loops; a figure harness
// may instead stage it and issue requests by hand.
type Cluster struct {
	Plane *ControlPlane
	// Peers[i] has id i and its own seed stream.
	Peers []*Peer
	// cond is the run's copy of the conditions, which faults fold into.
	cond *Conditions
}

// StartCluster validates cfg against the trace, then starts the control
// plane and the peers, every element seeded from cfg.Seed. The caller
// stops the cluster; on error whatever had started is stopped here.
func StartCluster(cfg ClusterConfig, tr *trace.Trace) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster config: %w", err)
	}
	if tr == nil || len(tr.Users) == 0 {
		return nil, fmt.Errorf("%w: cluster needs a non-empty trace", dist.ErrBadParameter)
	}
	if cfg.Peers > len(tr.Users) {
		return nil, fmt.Errorf("%w: %d peers but only %d users in trace", dist.ErrBadParameter, cfg.Peers, len(tr.Users))
	}
	tc, cond := cfg.elements()
	plane, err := StartControlPlane(cfg.plane(), tc, tr, cond)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Plane: plane, Peers: make([]*Peer, 0, cfg.Peers), cond: cond}
	for i := 0; i < cfg.Peers; i++ {
		p, err := startClusterPeer(cfg, tr, plane, cond, i)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Peers = append(c.Peers, p)
	}
	return c, nil
}

// startClusterPeer starts peer id of cfg's cluster against plane: a copy
// of the cfg.Peer template with the id and its own seed stream.
func startClusterPeer(cfg ClusterConfig, tr *trace.Trace, plane *ControlPlane, cond *Conditions, id int) (*Peer, error) {
	pc := cfg.Peer
	pc.ID, pc.Seed = id, cfg.Seed+int64(id)*7919
	p, err := NewPeerWithControlPlane(pc, tr, plane, cond)
	if err == nil {
		err = p.Start()
	}
	return p, err
}

// Stop stops every peer, then the control plane.
func (c *Cluster) Stop() {
	for _, p := range c.Peers {
		p.Stop()
	}
	c.Plane.Stop()
}

// Counters merges the plane's counters with every peer's.
func (c *Cluster) Counters() obs.Counters {
	ctr := c.Plane.Counters()
	for _, p := range c.Peers {
		ctr.Merge(p.Counters())
	}
	return ctr
}

// RunClusterCtx starts a cluster, drives the session workload to
// completion, shuts everything down and returns aggregated metrics. A
// cancelled context stops the workload, the fault driver and every
// tracker/peer goroutine before returning ctx.Err(), with what the
// workload had run when it started before the cancellation. With a fault plan,
// the compiled schedule is replayed on wall-clock offsets while the
// workload runs.
func RunClusterCtx(ctx context.Context, cfg ClusterConfig, tr *trace.Trace) (*ClusterResult, error) {
	c, err := StartCluster(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	return c.run(ctx, cfg, tr)
}

// RunPeer runs peer id of cfg's cluster, and only it, against plane: a
// cluster peer in a process of its own, started as StartCluster starts
// each of its own, driven through its sessions as RunClusterCtx drives
// them (probe loop and metrics endpoint included) and stopped. It takes
// no fault plan; its result accounts this peer alone.
func RunPeer(ctx context.Context, cfg ClusterConfig, tr *trace.Trace, plane *ControlPlane, id int) (*ClusterResult, error) {
	if cfg.Faults != nil || tr == nil || tr.User(trace.UserID(id)) == nil {
		return nil, fmt.Errorf("%w: a lone peer takes no fault plan and plays a user of the trace, not %d", dist.ErrBadParameter, id)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster config: %w", err)
	}
	_, cond := cfg.elements()
	p, err := startClusterPeer(cfg, tr, plane, cond, id)
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	return (&Cluster{Plane: plane, Peers: []*Peer{p}, cond: cond}).run(ctx, cfg, tr)
}

// run drives the started cluster's peers through cfg's workload, each on
// its own id's stream and ledger row.
func (c *Cluster) run(ctx context.Context, cfg ClusterConfig, tr *trace.Trace) (*ClusterResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		return nil, err
	}
	var sched *faults.Schedule
	if cfg.Faults != nil {
		sched, err = cfg.Faults.Compile(cfg.Peers)
		if err != nil {
			return nil, fmt.Errorf("cluster faults: %w", err)
		}
	}
	w := &workload{cfg: cfg, tr: tr, picker: picker, res: &ClusterResult{
		Protocol: cfg.Peer.Mode.String(),
		Ledger:   vod.NewLedger(len(tr.Users), cfg.VideosPerSession),
	}}

	if cfg.MetricsAddr != "" {
		memW := obs.NewMemWatermark(1) // refreshed on every scrape
		traceBytes := tr.Bytes()
		prom := func(out io.Writer) {
			// Live counter view, the same fold the final result takes.
			ctr := c.Counters()
			obs.WritePromCounters(out, "socialtube", &ctr)
			// A plain copy would alias the live bucket window.
			w.mu.Lock()
			hist := w.res.StartupDelay.Clone()
			w.mu.Unlock()
			obs.WritePromHist(out, "socialtube_startup_delay_ms", &hist)
		}
		srv, err := obs.ServeMetrics(cfg.MetricsAddr, func() any {
			return liveMetrics(cfg, c.Plane, w.res, &w.mu, memW, traceBytes, len(tr.Users))
		}, prom, cfg.PprofEnabled)
		if err != nil {
			return nil, fmt.Errorf("cluster metrics: %w", err)
		}
		defer srv.Close()
		if cfg.OnMetricsAddr != nil {
			cfg.OnMetricsAddr(srv.Addr())
		}
	}

	// stop fans the shutdown out to the session loops and the fault
	// driver, on cancellation or once the workload completes.
	stop, halt := context.WithCancel(ctx)
	defer halt()
	w.stop, w.begin = stop.Done(), time.Now()
	var faultWG sync.WaitGroup
	if sched != nil {
		w.fd = &faultDriver{cond: c.cond, done: make(chan struct{})}
		// Events due at the start land before any peer issues a request;
		// the driver replays the rest (the schedule is sorted by time).
		rest := sched.Events
		for len(rest) > 0 && rest[0].At <= 0 {
			w.fd.apply(rest[0], w, c.Peers, c.Plane)
			rest = rest[1:]
		}
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			w.fd.drive(rest, w, c.Peers, c.Plane)
		}()
	}

	var wg sync.WaitGroup
	for _, p := range c.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.sessions(p)
		}()
	}
	wg.Wait()
	halt()
	faultWG.Wait()

	res := w.res
	res.Close()
	res.Elapsed = time.Since(w.begin)
	res.ServerBytes = c.Plane.ServedBytes()
	res.TakeoverMs = c.Plane.TakeoverMs()
	res.Obs = c.Counters()
	for _, p := range c.Peers {
		res.PeerBytes += p.ServedBytes()
	}
	return res, ctx.Err()
}

// workload is one run's session driver: what every peer's session loop
// reads, and the result they file into under mu. fd is nil without faults.
type workload struct {
	cfg    ClusterConfig
	tr     *trace.Trace
	picker *vod.Picker
	begin  time.Time
	stop   <-chan struct{}
	fd     *faultDriver
	mu     sync.Mutex
	res    *ClusterResult
}

// sessions drives peer p through its sessions, mirroring the simulator's
// workload loop over real time. It returns early when stop closes or when
// the peer crashed permanently (no rejoin scheduled).
func (w *workload) sessions(p *Peer) {
	cfg, idx := w.cfg, p.cfg.ID
	g := dist.NewRNG(cfg.Seed*1_000_003 + int64(idx))
	user := &w.tr.Users[idx]
	proto := cfg.Peer.Mode.String()
	// Per-peer span sequence with the peer id in the high bits, so spans
	// from different peers never alias in a merged trace.
	var spanSeq uint64
	emit := func(ev obs.Event) {
		if cfg.Tracer == nil {
			return
		}
		ev.T = int64(time.Since(w.begin))
		ev.Proto = proto
		ev.Node = idx
		cfg.Tracer.Emit(ev)
	}

	// Optional probe loop for the peer's whole lifetime (a crashed host
	// does not probe).
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	if cfg.ProbeInterval > 0 {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			ticker := time.NewTicker(cfg.ProbeInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if !p.IsCrashed() {
						p.Probe()
					}
				case <-probeStop:
					return
				}
			}
		}()
	}
	defer func() {
		close(probeStop)
		probeWG.Wait()
	}()

	for s := 0; s < cfg.Sessions; s++ {
		if !w.fd.waitRejoin(p, w.stop) {
			return
		}
		p.SetOnline(true)
		emit(obs.Event{Kind: obs.KindJoin, Video: -1, Provider: -1})
		plan := w.picker.PlanSession(g, user, cfg.VideosPerSession, cfg.MeanOffTime)
		for i, v := range plan.Videos {
			if !w.fd.waitRejoin(p, w.stop) {
				return
			}
			outage := w.fd.duringOutage()
			rec := p.RequestVideo(v)
			spanSeq++
			span := uint64(idx+1)<<40 | spanSeq
			emit(obs.Event{Kind: obs.KindServe, Video: int64(v), Provider: -1,
				Source: rec.Source.String(), Msgs: rec.Messages, Span: span})
			if rec.HandoffAttempts > 0 {
				emit(obs.Event{Kind: obs.KindHandoff, Video: int64(v), Provider: -1,
					OK: rec.Handoffs > 0, Msgs: rec.HandoffAttempts, Span: span})
			}
			if rec.ServerRescued {
				emit(obs.Event{Kind: obs.KindRescue, Video: int64(v), Provider: -1,
					Source: vod.SourceServer.String(), Span: span})
			}
			w.mu.Lock()
			w.res.Record(idx, rec.RequestResult, rec.Startup)
			if rec.Failed {
				w.res.FailedRequests++
			}
			if outage {
				w.res.OutageRequests++
				if !rec.Failed {
					w.res.OutageServed++
				}
			}
			w.mu.Unlock()
			if !sleepUntil(time.Now().Add(cfg.WatchTime), w.stop) {
				return
			}
			if !p.IsCrashed() {
				p.FinishVideo(v)
			}
			w.mu.Lock()
			w.res.Links(i, p.Links())
			w.mu.Unlock()
		}
		p.SetOnline(false)
		if !p.IsCrashed() {
			p.LeaveOverlays()
		}
		emit(obs.Event{Kind: obs.KindLeave, Video: -1, Provider: -1})
		if s+1 < cfg.Sessions {
			if !sleepUntil(time.Now().Add(plan.OffTime), w.stop) {
				return
			}
		}
	}
}
