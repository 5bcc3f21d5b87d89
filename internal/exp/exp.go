// Package exp is the trace-driven experiment engine: it drives any
// vod.Protocol (SocialTube or a baseline) over the discrete-event simulator
// with session churn and the simnet bandwidth/latency model, and collects
// the paper's three evaluation metrics — startup delay, normalized peer
// bandwidth and overlay maintenance overhead (Figs. 16–18).
package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/sim"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Maintainer is implemented by protocols with periodic neighbour probing.
type Maintainer interface {
	// Probe runs one maintenance round for the node and returns the
	// number of probe messages sent.
	Probe(node int) int
}

// Timed is implemented by protocols whose behaviour depends on elapsed
// virtual time (e.g. PA-VoD's watcher-readiness constraint). The engine
// calls SetNow before every protocol callback.
type Timed interface {
	SetNow(now time.Duration)
}

// abruptLeaveP is the probability a session ends with an abrupt failure
// instead of a graceful departure, exercising the probe-based repair path.
const abruptLeaveP = 0.3

// playoutBuffer is how much content must arrive before playback starts.
// Peers' uplinks exceed the bitrate (§IV-B: "most Internet users have
// typical download bandwidths of at least twice that bitrate"), so startup
// is buffering plus query time, not a full chunk download.
const playoutBuffer = 2 * time.Second

// Config sets the workload parameters. Defaults follow Table I of the
// paper, scaled by the caller through the trace size. The chunk count,
// bitrate and video-selection mix are the vod package's Table I
// constants, shared with the emulator.
type Config struct {
	// Seed drives session scheduling and churn decisions.
	Seed int64
	// Sessions is how many sessions each user runs (paper: 25).
	Sessions int
	// VideosPerSession is how many videos a node watches per session
	// (paper: 10).
	VideosPerSession int
	// MeanOffTime is the mean of the exponential off-period between a
	// user's sessions (paper: 500 s).
	MeanOffTime time.Duration
	// ProbeInterval is the neighbour-probing period (paper: 10 min).
	ProbeInterval time.Duration
	// Horizon bounds simulated time (paper: 3 days). 0 disables.
	Horizon time.Duration
	// WatchScale compresses playback time: a video of length L occupies
	// L*WatchScale of virtual time. 1.0 reproduces real playback; small
	// values shorten experiments without changing request ordering.
	WatchScale float64
}

// DefaultConfig returns Table I's workload parameters.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Sessions:         25,
		VideosPerSession: 10,
		MeanOffTime:      500 * time.Second,
		ProbeInterval:    10 * time.Minute,
		Horizon:          3 * 24 * time.Hour,
		WatchScale:       1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sessions <= 0:
		return fmt.Errorf("%w: sessions=%d", dist.ErrBadParameter, c.Sessions)
	case c.VideosPerSession <= 0:
		return fmt.Errorf("%w: videosPerSession=%d", dist.ErrBadParameter, c.VideosPerSession)
	case c.MeanOffTime <= 0:
		return fmt.Errorf("%w: meanOffTime=%v", dist.ErrBadParameter, c.MeanOffTime)
	case c.ProbeInterval <= 0:
		return fmt.Errorf("%w: probeInterval=%v", dist.ErrBadParameter, c.ProbeInterval)
	case c.Horizon < 0:
		return fmt.Errorf("%w: horizon=%v", dist.ErrBadParameter, c.Horizon)
	case c.WatchScale <= 0:
		return fmt.Errorf("%w: watchScale=%v", dist.ErrBadParameter, c.WatchScale)
	}
	return nil
}

// Result aggregates one experiment run. It marshals to JSON with every
// series rendered as a percentile summary plus its sparse buckets, for
// downstream analysis tooling.
type Result struct {
	Protocol string `json:"protocol"`
	// Ledger is the delivery account shared with the emulator: startup
	// delay, per-node peer bandwidth, links by video index, hit counters
	// and query messages (Figs. 16–18).
	vod.Ledger
	// ProbeMessages counts maintenance probe messages.
	ProbeMessages vod.Counter `json:"probeMessages"`
	// ServerBytes / PeerBytes are total bytes served.
	ServerBytes int64 `json:"serverBytes"`
	PeerBytes   int64 `json:"peerBytes"`
	// Requests is the total number of video requests issued.
	Requests int64 `json:"requests"`
	// SimulatedTime is the virtual time the run covered.
	SimulatedTime time.Duration `json:"simulatedTimeNanos"`
	// Obs is the protocol's dense counter snapshot at the end of the run
	// (zero when the protocol is not obs.Instrumented), plus the chunk
	// split the runner accounts itself.
	Obs obs.Counters `json:"obs"`
	// Engine is the discrete-event engine's accounting.
	Engine sim.Stats `json:"engine"`
	// Resilience aggregates the fault layer's degradation metrics; every
	// field is zero when no fault plan was installed.
	Resilience Resilience `json:"resilience"`
	// Mem is the run's memory accounting: deterministic trace footprint
	// (bytes, bytes-per-user) plus the environmental heap high-water
	// mark, which MemUsage keeps out of the JSON encoding so same-seed
	// Results marshal byte-identically.
	Mem obs.MemUsage `json:"mem"`
	// Sharded carries the category partition's extra accounting
	// (RunSharded); nil on the identity partition (Run, RunCtx).
	Sharded *ShardedInfo `json:"sharded,omitempty"`
	// Timeline is the per-window telemetry recorded when
	// Options.TimelineWindow is set; nil otherwise.
	Timeline *Timeline `json:"timeline,omitempty"`
	// Load carries the open-loop engine's accounting when Options.Load
	// installed an offered-load profile; nil otherwise.
	Load *LoadInfo `json:"load,omitempty"`
}

// String summarizes the run in one human-readable line.
func (r *Result) String() string {
	_, p50, _ := r.NormalizedPeerBandwidthPercentiles()
	return fmt.Sprintf(
		"%s: %d requests (cache %d / peer %d / server %d), peer-bw p50 %.2f, startup p50 %.0f ms over %v",
		r.Protocol, r.Requests, r.CacheHits.Value(), r.PeerHits.Value(), r.ServerHits.Value(),
		p50, r.StartupDelay.Percentile(50), r.SimulatedTime.Round(time.Second))
}

// runner carries one experiment's mutable state.
type runner struct {
	cfg    Config
	tr     *trace.Trace
	proto  vod.Protocol
	net    *simnet.Network
	engine *sim.Engine
	g      *dist.RNG
	picker *vod.Picker
	timed  Timed // non-nil when the protocol wants clock callbacks
	// ctr is the protocol's counter block when it is obs.Instrumented,
	// otherwise a private scratch block, so the runner's own accounting
	// (chunk split) never needs a nil check.
	ctr          *obs.Counters
	res          *Result
	sessionsLeft []int
	online       []bool
	// gen is a per-node session generation: a crash abandons the
	// session chain, and the generation check stops its still-queued
	// finish events from resurrecting after a rejoin.
	gen    []uint32
	chains []chain
	// The chain's events, bound once: onStart's payload is the node, every
	// other's ref(node, gen). onNext is indexed by whether the video played
	// (1) or was shed (0), a remote lookup's two hops by whether the
	// requester holds the video's first chunk, which its chain has no room
	// for.
	onStart                   sim.Handler
	onNext, onLookup, onReply [2]sim.Handler
	// The run's other events, bound once too: onFault's payload indexes
	// faults, onArrive fires the pending arrival and onProbe runs a
	// maintenance round of maint.
	onFault, onArrive, onProbe sim.Handler
	maint                      Maintainer
	// Fault-injection state (internal/faults). All of it stays
	// zero-valued without a plan, so a healthy run pays only cheap
	// comparisons on the hot path and draws no extra randomness. faults
	// is the compiled schedule's events.
	faults       []faults.Event
	crashed      []bool
	crashedCount int
	// rejoinsPending counts scheduled-but-unfired rejoin events, so the
	// probe loop knows crashed nodes will come back (see probeAll).
	rejoinsPending int
	// win folds the plan's burst, outage and chaos windows.
	win      faults.Window
	repairer Repairer
	reseeder Reseeder
	// mem samples the heap high-water mark once per watermarkEvery
	// requests (power of two, so the hot path pays one mask test).
	mem *obs.MemWatermark
	// remote routes cross-cell lookups and cell is this runner's index in
	// the partition; nil and 0 on the identity partition, whose hot path
	// pays one comparison.
	remote *remoteRouter
	cell   int
	// filedOpens is the breaker-open total last filed into res.Timeline,
	// so each request files the delta into its own window.
	filedOpens uint64
	// Open-loop load state (Options.Load); all nil/zero in closed-loop
	// runs. streams counts pending arrival events: one (arrival, drawn
	// from arrivals) while the profile's stream still emits.
	streams  int
	arrivals *load.Gen
	arrival  load.Arrival
	// loadG is a dedicated RNG for arrival-side decisions (idle-node
	// choice, session sampling) so installing a load profile never
	// perturbs the main stream's draws.
	loadG *dist.RNG
	// flashChannel is the channel whose top video a flash arrival
	// requests.
	flashChannel int
}

// chain is a node's session chain between its events, in 48 bytes: the
// plan's videos sliced to those requested so far (cap is the plan's
// length), its off-time, and a remote lookup's issue time and word
// (remoteRouter.lookup).
type chain struct {
	videos  []trace.VideoID
	off, at time.Duration
	word    uint64
}

// ref is a chain event's payload: the node, and its session generation in
// the high half.
func ref(node int, gen uint32) uint64 { return uint64(gen)<<32 | uint64(uint32(node)) }

// watermarkEvery is the request period between heap samples. ReadMemStats
// stops the world, so the period trades watermark resolution against run
// slowdown; 4096 keeps the cost invisible even at 1M users.
const watermarkEvery = 4096

// Run drives the protocol over the trace and returns aggregated metrics.
// The protocol must be driven by at most one Run at a time.
func Run(cfg Config, tr *trace.Trace, proto vod.Protocol, netCfg simnet.Config) (*Result, error) {
	return RunCtx(context.Background(), cfg, tr, proto, netCfg, Options{})
}

// RunCtx is Run with cooperative cancellation and cross-cutting options:
// the identity partition of the one driver — a single cell holding the
// whole trace, the caller's seed, network and protocol passed through
// untouched, no router and so no barrier grid. A healthy RunCtx (zero
// Options) is bit-identical to Run: fault support draws no randomness and
// schedules no events unless a plan is installed.
func RunCtx(ctx context.Context, cfg Config, tr *trace.Trace, proto vod.Protocol, netCfg simnet.Config, opts Options) (*Result, error) {
	lone := []cell{{cfg: cfg, tr: tr, proto: proto, net: netCfg}}
	return drive(ctx, tr, lone, opts, 0, nil)
}

// cell is one event loop's share of a run: the users it simulates and the
// protocol instance, workload seed and network they run under — the
// partition's decisions. A cell without users does no work.
type cell struct {
	cfg   Config
	tr    *trace.Trace
	proto vod.Protocol
	net   simnet.Config
}

// drive is the package's one experiment driver: it builds one vod.Picker
// over tr that every cell shares, and a runner per cell on that cell's loop
// of a sim.ShardedEngine, arms it with opts, advances all loops to the
// horizon — workers at a time, cancellable every few hundred events — and
// folds the cells' results in cell order. tr is the population the cells
// partition. The barrier grid only carries the router's cross-cell mail, so
// without a router the run is a single epoch: for one cell, exactly
// sim.Engine.RunCtx.
func drive(ctx context.Context, tr *trace.Trace, cells []cell, opts Options, workers int, router *remoteRouter) (*Result, error) {
	if opts.TimelineWindow < 0 {
		return nil, fmt.Errorf("%w: timeline window %v", dist.ErrBadParameter, opts.TimelineWindow)
	}
	if len(cells) > 1 && (opts.Faults != nil || opts.TimelineWindow > 0 || opts.Load != nil) {
		return nil, fmt.Errorf("%w: a %d-cell partition takes no fault plan, timeline or load profile", dist.ErrBadParameter, len(cells))
	}
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		return nil, err
	}
	loops := sim.ShardedConfig{Shards: len(cells), Workers: workers}
	if router != nil {
		loops.Epoch = DefaultShardedEpoch
	}
	se, err := sim.NewShardedEngine(loops)
	if err != nil {
		return nil, err
	}
	if router != nil {
		router.se = se
	}
	var runners []*runner
	for c, cl := range cells {
		if cl.tr == nil || len(cl.tr.Users) == 0 {
			continue
		}
		r, err := newRunner(cl.cfg, cl.tr, picker, cl.proto, cl.net)
		if err == nil {
			// Everything the runner schedules stays on its cell's loop.
			r.engine, r.remote, r.cell = se.Shard(c), router, c
			if router != nil {
				r.res.Sharded = &ShardedInfo{}
			}
			err = r.arm(opts)
		}
		if err != nil {
			if len(cells) > 1 {
				err = fmt.Errorf("cell %d: %w", c, err)
			}
			return nil, err
		}
		runners = append(runners, r)
	}
	if len(runners) == 0 {
		return nil, fmt.Errorf("%w: experiment needs a non-empty trace", dist.ErrBadParameter)
	}
	if err := se.RunCtx(ctx, runners[0].cfg.Horizon); err != nil {
		return nil, err
	}
	// The first cell's result is the accumulator, so folding one cell is
	// the identity.
	merged := runners[0].finalize()
	for _, r := range runners[1:] {
		merged.merge(r.finalize())
	}
	merged.SimulatedTime = se.Now()
	merged.Engine = se.Stats()
	merged.Mem.TraceBytes = tr.Bytes()
	merged.Mem.BytesPerUser = float64(merged.Mem.TraceBytes) / float64(len(tr.Users))
	if info := merged.Sharded; info != nil {
		info.Cells, info.Epoch, info.Epochs, info.ShardLoad = len(cells), DefaultShardedEpoch, se.Epochs(), se.ShardStats()
	}
	return merged, nil
}

// newRunner validates the inputs and builds a fully wired runner over a
// non-empty trace and shared picker, on a private engine, no events queued.
// Split from drive so lifecycle unit tests can drive individual
// transitions (startSession/watch/endSession) directly.
func newRunner(cfg Config, tr *trace.Trace, picker *vod.Picker, proto vod.Protocol, netCfg simnet.Config) (*runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("exp config: %w", err)
	}
	if proto == nil {
		return nil, fmt.Errorf("%w: nil protocol", dist.ErrBadParameter)
	}
	network, err := simnet.New(netCfg)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:    cfg,
		tr:     tr,
		proto:  proto,
		net:    network,
		engine: sim.NewEngine(),
		g:      dist.NewRNG(cfg.Seed),
		picker: picker,
		res: &Result{
			Protocol: proto.Name(),
			Ledger:   vod.NewLedger(len(tr.Users), cfg.VideosPerSession),
		},
		sessionsLeft: make([]int, len(tr.Users)),
		online:       make([]bool, len(tr.Users)),
		gen:          make([]uint32, len(tr.Users)),
		chains:       make([]chain, len(tr.Users)),
		crashed:      make([]bool, len(tr.Users)),
		ctr:          &obs.Counters{},
		mem:          obs.NewMemWatermark(watermarkEvery),
		flashChannel: -1,
	}
	r.onStart = func(now time.Duration, node uint64) { r.startSession(int(node), now) }
	for k := range r.onNext {
		r.onNext[k] = func(now time.Duration, arg uint64) { r.next(arg, k == 1, now) }
		r.onLookup[k] = func(now time.Duration, arg uint64) { r.remote.lookup(r, arg, k, now) }
		r.onReply[k] = func(now time.Duration, arg uint64) { r.remote.reply(r, arg, k == 1, now) }
	}
	r.onFault = func(now time.Duration, i uint64) { r.applyFault(r.faults[i], now) }
	r.onArrive = func(now time.Duration, _ uint64) {
		viral := r.arrival.Flash
		r.streams--
		r.pump()
		r.applyArrival(viral, now)
	}
	r.onProbe = func(now time.Duration, _ uint64) { r.probeAll(now) }
	r.timed, _ = proto.(Timed)
	if inst, ok := proto.(obs.Instrumented); ok {
		r.ctr = inst.ObsCounters()
	}
	return r, nil
}

// arm installs every run option on a freshly built runner and schedules its
// opening events, in one fixed order (it fixes the RNG draws and the event
// sequence): timeline recorder, then the arrivals — open-loop from
// opts.Load, or the closed-loop session chains staggered across one mean
// off-period — then the maintenance probe loop, then the fault plan.
func (r *runner) arm(opts Options) error {
	if opts.TimelineWindow > 0 {
		r.res.Timeline = &Timeline{Width: opts.TimelineWindow}
	}
	if opts.Load != nil {
		// Open loop: arrivals come from the rate profile instead of
		// per-user session chains (sessionsLeft stays 0 everywhere).
		if err := r.installLoad(opts.Load); err != nil {
			return err
		}
	} else {
		for node := range r.tr.Users {
			r.sessionsLeft[node] = r.cfg.Sessions
			delay := time.Duration(dist.Exponential(r.g, float64(r.cfg.MeanOffTime)))
			r.engine.Schedule(delay, r.onStart, uint64(node))
		}
	}
	if r.maint, _ = r.proto.(Maintainer); r.maint != nil {
		r.engine.Schedule(r.engine.Now()+r.cfg.ProbeInterval, r.onProbe, 0)
	}
	if opts.Faults != nil {
		return r.scheduleFaults(opts.Faults)
	}
	return nil
}

// tick forwards the virtual clock to Timed protocols.
func (r *runner) tick(now time.Duration) {
	if r.timed != nil {
		r.timed.SetNow(now)
	}
}

func (r *runner) startSession(node int, now time.Duration) {
	// A crashed node's wake-up events are swallowed until it rejoins;
	// an online guard stops a late wake-up (consumed by an earlier
	// rejoin) from nesting a second session. Neither can trigger
	// without a fault plan.
	if r.sessionsLeft[node] <= 0 || r.crashed[node] || r.online[node] {
		return
	}
	r.sessionsLeft[node]--
	r.begin(node, r.picker.PlanSession(r.g, &r.tr.Users[node], r.cfg.VideosPerSession, r.cfg.MeanOffTime), now)
}

// begin brings the node online in a new session generation and starts its
// chain on the plan. The plan's draws touch no protocol state, so drawing
// it before Join draws what drawing it after would.
func (r *runner) begin(node int, plan vod.SessionPlan, now time.Duration) {
	r.tick(now)
	r.online[node] = true
	r.gen[node]++
	r.proto.Join(node)
	r.chains[node] = chain{videos: plan.Videos[:0:len(plan.Videos)], off: plan.OffTime}
	r.watch(node, now)
}

// watch requests the chain's next video, accounts its delivery, and
// schedules the next step after playback. A chain out of videos, or whose
// node went offline, ends the session.
func (r *runner) watch(node int, now time.Duration) {
	c := &r.chains[node]
	idx := len(c.videos)
	if idx == cap(c.videos) || !r.online[node] {
		r.endSession(node, c.off)
		return
	}
	c.videos = c.videos[:idx+1]
	v := c.videos[idx]
	r.tick(now)
	res := r.proto.Request(node, v)
	r.res.Requests++
	r.mem.Tick()
	r.accountFaults(&res)
	if r.remote != nil && res.Source == vod.SourceServer && r.remote.forward(r, node, v, res, now) {
		// The lookup is in flight to the video's home community; the
		// session chain resumes in watchAccount when the reply event
		// arrives after the epoch barrier.
		return
	}
	r.watchAccount(node, res, now, now)
}

// watchAccount is the second half of watch: account the located result's
// delivery and schedule the post-playback step. reqAt is when the request
// was issued and now when the result became known — they differ only for
// cross-community lookups, whose barrier wait is real startup delay.
func (r *runner) watchAccount(node int, res vod.RequestResult, reqAt, now time.Duration) {
	c := &r.chains[node]
	video := r.tr.Video(c.videos[len(c.videos)-1])
	// Chunk sizes scale with WatchScale so compressed timelines offer the
	// server a proportionally compressed load; otherwise time compression
	// would multiply the offered bitrate without scaling capacity.
	chunkBytes := int64(float64(vod.ChunkBytes(video.Length, vod.DefaultBitrateBps, vod.DefaultChunksPerVideo)) * r.cfg.WatchScale)
	ready := now  // when playback can start: at once from the local cache
	var shed bool // server admission queue turned the request away
	serverBytes := r.net.ServerBytes()
	switch res.Source {
	case vod.SourcePeer:
		ready, _ = r.deliver(node, simnet.NodeID(res.Provider), res, chunkBytes, now)
		r.ctr.ChunksPeer += vod.DefaultChunksPerVideo
	case vod.SourceServer:
		at := now
		if until := r.win.OutageUntil(); until > now {
			// The server is dark: the request retries until the
			// outage lifts, then is served (graceful fallback). The
			// wait shows up as startup delay.
			at = until
			r.res.Resilience.ServerDeferred++
		}
		ready, shed = r.deliver(node, simnet.ServerID, res, chunkBytes, at)
		if shed {
			r.ctr.ServerShed++
			if r.res.Load != nil {
				r.res.Load.ServerShed++
			}
		} else {
			r.ctr.ServerAdmitted++
			if r.res.Load != nil {
				r.res.Load.ServerAdmitted++
			}
			r.ctr.ChunksServer += vod.DefaultChunksPerVideo
		}
	}
	if shed {
		// Queue full: the viewer gives up on this video. No bytes moved, so
		// it is no delivery: the ledger keeps only the search it spent.
		r.res.Messages.Addn(int64(res.Messages))
	} else {
		r.res.Record(node, res, ready-reqAt)
	}
	if r.res.Timeline != nil {
		r.recordWindow(res, reqAt, ready, r.net.ServerBytes()-serverBytes, shed)
	}
	// Playback, then the next video — immediately when the request was shed:
	// the viewer abandons it and the session chain moves on.
	finishAt, played := ready, 0
	if !shed {
		finishAt, played = ready+time.Duration(float64(video.Length)*r.cfg.WatchScale), 1
	}
	r.engine.Schedule(finishAt, r.onNext[played], ref(node, r.gen[node]))
}

// next ends the chain's current video and moves the chain on, unless the
// node went offline or a crash and rejoin superseded the chain.
func (r *runner) next(arg uint64, played bool, now time.Duration) {
	node := int(uint32(arg))
	if !r.online[node] || r.gen[node] != uint32(arg>>32) {
		return
	}
	r.tick(now)
	if played {
		c := &r.chains[node]
		idx := len(c.videos) - 1
		r.proto.Finish(node, c.videos[idx])
		r.res.Links(idx, r.proto.Links(node))
	}
	r.watch(node, now)
}

// deliver models the network path of one video: the query travels the
// overlay hops, then the video streams from the provider. Playback starts
// once the playout buffer has arrived; the rest of the video streams during
// playback (it still occupies the provider's uplink, so overload shows up
// as queueing delay). A prefetched first chunk starts playback immediately,
// and only the remainder — total minus the local chunk — crosses the
// provider's uplink. Server deliveries pass through the bounded admission
// queue when the simnet configures one: shed=true means the queue was full,
// no bytes moved and the viewer abandoned this video. A provider in another
// cell (remoteProvider) is reached over the server-path latency and fills
// the buffer at its nominal uplink rate: its uplink queue lives in that cell
// and is deliberately not shared state (DESIGN.md §12).
func (r *runner) deliver(node int, from simnet.NodeID, res vod.RequestResult, chunkBytes int64, now time.Duration) (ready time.Duration, shed bool) {
	to := simnet.NodeID(node)
	remote := from == remoteProvider
	if remote {
		from = simnet.ServerID
	}
	// Query path: one one-way latency per overlay hop (server requests
	// pay one round trip to the server).
	lat := r.win.ScaleLatency(r.net.Latency(from, to))
	queryDelay := time.Duration(res.Hops+1) * lat
	start := now + queryDelay

	total := chunkBytes * vod.DefaultChunksPerVideo
	fetch := total
	if res.PrefixCached {
		// The leading chunk is already local: only the remainder is
		// fetched over the provider's uplink.
		fetch = max(0, total-chunkBytes)
	}
	// head is what must land before playback starts: the playout buffer,
	// or nothing when playback starts from the local chunk and the whole
	// fetch streams behind it.
	head := min(fetch, int64(float64(vod.DefaultBitrateBps)*playoutBuffer.Seconds()/8*r.cfg.WatchScale))
	if res.PrefixCached {
		head = 0
	}
	headDone := now
	switch {
	case remote:
		r.res.Sharded.RemoteBytes += fetch
		headDone = start + time.Duration(float64(head)*8/float64(simnet.PeerUplinkBps)*float64(time.Second))
	case from == simnet.ServerID:
		var ok bool
		if headDone, ok = r.net.ServerTransfer(to, head, fetch, start); !ok {
			return now, true
		}
	default:
		if !res.PrefixCached {
			headDone = r.net.Transfer(from, to, head, start)
		}
		if rest := fetch - head; rest > 0 {
			r.net.Transfer(from, to, rest, start)
		}
	}
	if res.PrefixCached {
		return now, false
	}
	return headDone, false
}

// endSession closes a node's session chain. The usual caller is watch()
// on an online node that ran out of videos; the departure (graceful or
// abrupt) is announced to the protocol there. watch() can also land here
// with the node already offline — its online flag dropped mid-chain —
// and in that case the departure already happened, but the remaining
// sessionsLeft must still be rescheduled or the node is stranded
// forever. Crashed nodes are the exception: their restart belongs to
// the pending rejoin event, so rescheduling here would double-book.
func (r *runner) endSession(node int, offTime time.Duration) {
	if r.online[node] {
		r.online[node] = false
		if r.g.Bool(abruptLeaveP) {
			r.proto.Fail(node)
		} else {
			r.proto.Leave(node)
		}
	} else if r.crashed[node] {
		return
	}
	if r.sessionsLeft[node] > 0 {
		r.engine.Schedule(r.engine.Now()+offTime, r.onStart, uint64(node))
	}
}

func (r *runner) probeAll(now time.Duration) {
	for node := range r.online {
		if r.online[node] {
			r.res.ProbeMessages.Addn(int64(r.maint.Probe(node)))
		}
	}
	// Keep probing while any session work remains. A permanently
	// crashed node (a wave with DownFor 0) no longer counts as work —
	// but while rejoin events are still pending, crashed nodes with
	// sessions left will come back, so the probe loop must stay alive.
	// (Without that clause a probe tick landing while the whole
	// population is down ends maintenance for the rest of the run.)
	// An open-loop arrival stream is future work too, even at an instant
	// when nobody is online.
	more, rejoinable := r.streams > 0, r.rejoinsPending > 0
	for node := 0; !more && node < len(r.online); node++ {
		more = r.online[node] || (r.sessionsLeft[node] > 0 && (!r.crashed[node] || rejoinable))
	}
	if more {
		r.engine.Schedule(now+r.cfg.ProbeInterval, r.onProbe, 0)
	}
}

// finalize closes the runner's accounting and returns its cell's Result;
// simulated time, engine stats and trace footprint are the driver's.
func (r *runner) finalize() *Result {
	r.res.Close()
	r.res.ServerBytes = r.net.ServerBytes()
	r.res.PeerBytes = r.net.PeerBytes()
	if info := r.res.Sharded; info != nil {
		// Cross-community providers are peers too, but their bytes never
		// crossed this cell's simnet.
		r.res.PeerBytes += info.RemoteBytes
	}
	if r.res.Load != nil {
		r.res.Load.QueuePeak = r.net.ServerQueuePeak()
	}
	r.res.Obs = r.ctr.Snapshot()
	r.mem.Sample()
	r.res.Mem.HeapHighWater = r.mem.HighWater()
	return r.res
}

// merge folds another cell's Result into this one. Callers fold in cell
// order, so the merged series are independent of the worker layout. drive
// runs no option on more than one cell (a fault plan's node ids are global),
// so the resilience, timeline and load blocks stay unfolded.
func (res *Result) merge(o *Result) {
	res.Ledger.Merge(&o.Ledger)
	res.ProbeMessages.Addn(o.ProbeMessages.Value())
	res.ServerBytes += o.ServerBytes
	res.PeerBytes += o.PeerBytes
	res.Requests += o.Requests
	res.Obs.Merge(o.Obs)
	res.Mem.HeapHighWater = max(res.Mem.HeapHighWater, o.Mem.HeapHighWater)
	res.Sharded.RemoteLookups += o.Sharded.RemoteLookups
	res.Sharded.RemoteHits += o.Sharded.RemoteHits
	res.Sharded.RemoteBytes += o.Sharded.RemoteBytes
}
