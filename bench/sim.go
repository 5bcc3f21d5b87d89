package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

var simProtocols = []string{"SocialTube", "NetTube", "PA-VoD"}

// simLeg is one simulator run inside a round: a protocol of a closed-loop
// workload, or one (offered rate, protocol) column of the open-loop one.
type simLeg struct {
	Name  string // unique within the round, e.g. "SocialTube" or "rps8/NetTube"
	Proto string
	Res   *exp.Result
	Wall  time.Duration
	// Traced pass only.
	Stats *protoStats
	Mem   memDelta
}

// simBusy is the time the leg's event loops ran: its wall time on one
// loop, the sum over community loops on the sharded engine.
func (l *simLeg) simBusy() time.Duration {
	if l.Res.Sharded == nil {
		return l.Wall
	}
	var d time.Duration
	for _, s := range l.Res.Sharded.ShardLoad {
		d += s.Busy
	}
	return d
}

// resultDigest is the sha-256 of the Result's JSON, which carries no
// wall-clock field: same seed, same digest, on any host.
func resultDigest(res *exp.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// wrapFunc puts the timing decorator around a protocol instance on the
// traced pass and returns it unchanged on the untraced one.
type wrapFunc func(vod.Protocol) (vod.Protocol, error)

func noWrap(p vod.Protocol) (vod.Protocol, error) { return p, nil }

// runLeg times one simulator run; run must pass every protocol instance
// it drives (one per cell on the sharded engine) through wrap.
func runLeg(tr *tracing, name, proto string, run func(wrap wrapFunc) (*exp.Result, error)) (simLeg, error) {
	leg := simLeg{Name: name, Proto: proto}
	var cells []*protoStats
	wrap := wrapFunc(noWrap)
	if tr != nil {
		wrap = func(p vod.Protocol) (vod.Protocol, error) {
			st := &protoStats{}
			cells = append(cells, st)
			return decorate(p, st)
		}
	}
	sp := tr.start(name)
	runtime.GC()
	before := tr.memBefore()
	start := time.Now()
	res, err := run(wrap)
	leg.Wall = time.Since(start)
	leg.Mem = tr.memAfter(before)
	tr.end(sp)
	if err != nil {
		return leg, fmt.Errorf("%s: %w", name, err)
	}
	leg.Res = res
	if tr != nil {
		leg.Stats = &protoStats{}
		for _, st := range cells {
			leg.Stats.merge(st)
		}
	}
	logf("  %-22s %7d req %8.3fs %9.0f req/s  %s", name, res.Requests, leg.Wall.Seconds(),
		float64(res.Requests)/leg.Wall.Seconds(), res)
	return leg, nil
}

// simRound folds legs into a round, checking request conservation.
func simRound(legs []simLeg) (*round, error) {
	r := &round{Legs: legs, Digests: map[string]string{}}
	for i := range legs {
		l := &legs[i]
		res := l.Res
		r.Requests += res.Requests
		r.Parts = append(r.Parts, part{l.Name, l.Wall})
		served := res.CacheHits.Value() + res.PeerHits.Value() + res.ServerHits.Value()
		shed := int64(res.Obs.ServerShed)
		if served+shed != res.Requests {
			r.Failed += abs64(res.Requests - served - shed)
			r.Gates = append(r.Gates, fmt.Sprintf("%s: requests %d != cache+peer+server %d + shed %d", l.Name, res.Requests, served, shed))
		}
		if info := res.Load; info != nil {
			if info.Offered != info.Busy+res.Requests {
				r.Gates = append(r.Gates, fmt.Sprintf("%s: offered %d != busy %d + requests %d", l.Name, info.Offered, info.Busy, res.Requests))
			}
			if bound := res.Requests - res.CacheHits.Value() - res.PeerHits.Value(); info.ServerAdmitted+info.ServerShed != bound {
				r.Gates = append(r.Gates, fmt.Sprintf("%s: admitted %d + shed %d != server-bound arrivals %d", l.Name, info.ServerAdmitted, info.ServerShed, bound))
			}
		}
		d, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		r.Digests[l.Name] = d
	}
	return r, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// simSizes are the knobs a simulator workload is sized by. Populations
// are the issue's; only repetition counts were shrunk to fit the
// acceptance driver's time cap.
type simSizes struct {
	Channels, Categories, Users int
	VideoMult                   float64
	Sessions, Videos            int
	WatchScale                  float64
	// ProbeInterval overrides Table I's 10-minute maintenance period
	// (0 keeps it).
	ProbeInterval time.Duration
}

// buildTrace generates the population for the given sizes.
func (z simSizes) buildTrace() (*trace.Trace, error) {
	return z.scale(populationSeed).BuildTrace()
}

func (z simSizes) scale(seed int64) figures.Scale {
	return figures.Scale{
		TraceChannels: z.Channels, TraceUsers: z.Users, Categories: z.Categories,
		Sessions: z.Sessions, VideosPerSession: z.Videos, WatchScale: z.WatchScale,
		VideoCountMultiplier: z.VideoMult, Seed: seed,
	}
}

// expConfig is exp.DefaultConfig with the workload's repetition counts;
// compressed playback also compresses off-times and the horizon, as the
// figures package does.
func (z simSizes) expConfig(seed int64) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = seed
	cfg.Sessions, cfg.VideosPerSession, cfg.WatchScale = z.Sessions, z.Videos, z.WatchScale
	if z.WatchScale < 1 {
		cfg.MeanOffTime = 60 * time.Second
		cfg.Horizon = 24 * time.Hour
	}
	if z.ProbeInterval > 0 {
		cfg.ProbeInterval = z.ProbeInterval
	}
	return cfg
}

// simBase is what the three simulator workloads share: sizes, the seed,
// and the trace the last set-up generated.
type simBase struct {
	sizes simSizes
	seed  int64
	scale figures.Scale
	tr    *trace.Trace
	// Per-layer numbers the set-up itself measures.
	generate time.Duration
}

func newSimBase(z simSizes, seed int64) simBase {
	return simBase{sizes: z, seed: seed, scale: z.scale(seed)}
}

// generateTrace builds the trace and, as set-up does at every run of the
// program, one instance of each protocol the workload runs.
func (b *simBase) generateTrace(protocols []string) error {
	start := time.Now()
	tr, err := b.sizes.buildTrace()
	if err != nil {
		return err
	}
	b.generate = time.Since(start)
	b.tr = tr
	for _, name := range protocols {
		if _, err := b.scale.Protocol(name, tr); err != nil {
			return err
		}
	}
	return nil
}

func (b *simBase) tearDown() {}

func (b *simBase) population() *trace.Trace { return b.tr }

func (b *simBase) netConfig() simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Seed = b.seed
	return cfg
}

// ---- sim-closed ------------------------------------------------------

// simClosed replays sessions on the classic single event loop at the
// Table I shape, the three protocols back to back on one thread.
type simClosed struct{ simBase }

func newSimClosed(seed int64, quick bool) runner {
	z := simSizes{Channels: 545, Categories: 18, Users: 10_000, VideoMult: 4.4, Sessions: 1, Videos: 5, WatchScale: 1}
	if quick {
		z = simSizes{Channels: 60, Categories: 8, Users: 200, Sessions: 1, Videos: 3, WatchScale: 1}
	}
	return &simClosed{newSimBase(z, seed)}
}

func (w *simClosed) setUp() error { return w.generateTrace(simProtocols) }

func (w *simClosed) round(tr *tracing) (*round, error) {
	var legs []simLeg
	for _, name := range simProtocols {
		p, err := w.scale.Protocol(name, w.tr)
		if err != nil {
			return nil, err
		}
		leg, err := runLeg(tr, name, name, func(wrap wrapFunc) (*exp.Result, error) {
			p, err := wrap(p)
			if err != nil {
				return nil, err
			}
			return exp.Run(w.sizes.expConfig(w.seed), w.tr, p, w.netConfig())
		})
		if err != nil {
			return nil, err
		}
		legs = append(legs, leg)
	}
	return simRound(legs)
}

func (w *simClosed) report(rec *record, untraced, traced []*round) {
	reportSimModel(rec, untraced[0].leg("SocialTube"))
	reportSimLayers(rec, &w.simBase, traced)
}

// ---- sim-sharded -----------------------------------------------------

// simSharded runs the community-sharded engine with one worker per core
// over a population ten times Table I's.
type simSharded struct {
	simBase
	partition time.Duration
}

func newSimSharded(seed int64, quick bool) runner {
	z := simSizes{Channels: 545, Categories: 18, Users: 100_000, VideoMult: 4.4, Sessions: 1, Videos: 3, WatchScale: 0.05, ProbeInterval: time.Minute}
	if quick {
		z.Channels, z.Categories, z.Users, z.VideoMult = 60, 8, 400, 0
	}
	return &simSharded{simBase: newSimBase(z, seed)}
}

// cellFactory builds one community cell's protocol, seeded per cell as
// figures.ScaleSweep seeds its sharded points.
func cellFactory(s figures.Scale, name string, wrap wrapFunc) exp.CellProtocol {
	return func(cell int, cellTr *trace.Trace) (vod.Protocol, error) {
		cs := s
		cs.Seed = s.Seed*1_000_003 + int64(cell+1)
		cs.TraceUsers = len(cellTr.Users)
		p, err := cs.Protocol(name, cellTr)
		if err != nil {
			return nil, err
		}
		return wrap(p)
	}
}

func (w *simSharded) setUp() error {
	if err := w.generateTrace(nil); err != nil {
		return err
	}
	start := time.Now()
	part, err := trace.PartitionByCategory(w.tr)
	if err != nil {
		return err
	}
	w.partition = time.Since(start)
	factory := cellFactory(w.scale, "SocialTube", noWrap)
	for c := range part.Cells {
		if len(part.Cells[c].Trace.Users) == 0 {
			continue
		}
		if _, err := factory(c, part.Cells[c].Trace); err != nil {
			return err
		}
	}
	return nil
}

// runSharded runs one SocialTube leg with the server uplink scaled per
// capita from Table I's 10 000 users, as figures.ScaleSweep does.
func runSharded(scale figures.Scale, cfg exp.Config, tr *trace.Trace, seed int64, workers int, wrap wrapFunc) (*exp.Result, error) {
	netCfg := simnet.DefaultConfig()
	netCfg.Seed = seed
	if len(tr.Users) > 10_000 {
		netCfg.ServerUplinkBps = netCfg.ServerUplinkBps * int64(len(tr.Users)) / 10_000
	}
	return exp.RunSharded(cfg, tr, cellFactory(scale, "SocialTube", wrap), netCfg, exp.ShardedOptions{Workers: workers})
}

func (w *simSharded) round(tr *tracing) (*round, error) {
	leg, err := runLeg(tr, "SocialTube", "SocialTube", func(wrap wrapFunc) (*exp.Result, error) {
		return runSharded(w.scale, w.sizes.expConfig(w.seed), w.tr, w.seed, runtime.NumCPU(), wrap)
	})
	if err != nil {
		return nil, err
	}
	return simRound([]simLeg{leg})
}

// smoke checks that the worker count changes wall-clock only: a
// 2 000-user run must give one digest on one worker and on all cores.
func (w *simSharded) smoke(rec *record) error {
	z := w.sizes
	if z.Users > 2000 {
		z.Users = 2000
	}
	s := z.scale(w.seed)
	tr, err := z.buildTrace()
	if err != nil {
		return err
	}
	var digests []string
	for _, workers := range []int{1, runtime.NumCPU()} {
		res, err := runSharded(s, z.expConfig(w.seed), tr, w.seed, workers, noWrap)
		if err != nil {
			return err
		}
		d, err := resultDigest(res)
		if err != nil {
			return err
		}
		digests = append(digests, d)
	}
	rec.gate(digests[0] == digests[1], "sharded smoke: digest differs between Workers=1 and Workers=%d", runtime.NumCPU())
	return nil
}

func (w *simSharded) report(rec *record, untraced, traced []*round) {
	reportSimModel(rec, untraced[0].leg("SocialTube"))
	if traced == nil {
		return
	}
	rec.set("trace.partition_s", w.partition.Seconds(), 1)
	reportSimLayers(rec, &w.simBase, traced)
	leg := traced[0].leg("SocialTube")
	info := leg.Res.Sharded
	var busy, longest time.Duration
	var mail uint64
	for _, s := range info.ShardLoad {
		busy += s.Busy
		if s.Busy > longest {
			longest = s.Busy
		}
		mail += s.MailSent
	}
	rec.set("sim.sharded.utilisation", busy.Seconds()/(float64(runtime.NumCPU())*leg.Wall.Seconds()), 0)
	rec.set("sim.sharded.critical_path_frac", ratio(longest.Seconds(), busy.Seconds()), 0)
	rec.set("sim.sharded.epochs", float64(info.Epochs), 0)
	rec.set("sim.sharded.mail_per_req", ratio(float64(mail), float64(leg.Res.Requests)), 0)
	rec.set("core.remote_hit_frac", ratio(float64(info.RemoteHits), float64(info.RemoteLookups)), 0)
}

// ---- sim-open --------------------------------------------------------

// Open-loop constants. Arrivals are Poisson in simulated time, so the
// generator is never late by construction.
var (
	openColumns  = []float64{4, 8, 12, 18, 36} // offered requests per simulated second
	openRefRPS   = 8.0                         // below the knee: where startup quantiles are read
	openKneeLo   = 2.0
	openKneeHi   = 36.0
	openKneeStep = 0.5
)

const (
	openQueueCap   = 32
	openKneeP99Ms  = 2000.0
	openWindow     = 15 * time.Minute
	openWindowFast = 30 * time.Second
)

// simOpen drives the classic loop from a steady Poisson arrival profile
// against a server with a bounded admission queue: five fixed offered
// rates for three protocols, then a bisection for SocialTube's knee.
type simOpen struct {
	simBase
	window time.Duration
	knee   float64
}

func newSimOpen(seed int64, quick bool) runner {
	z := simSizes{Channels: 545, Categories: 18, Users: 2000, Sessions: 1, Videos: 1, WatchScale: 0.05}
	window := openWindow
	if quick {
		z.Channels, z.Categories, z.Users = 60, 8, 200
		window = openWindowFast
	}
	return &simOpen{simBase: newSimBase(z, seed), window: window}
}

func (w *simOpen) setUp() error { return w.generateTrace(simProtocols) }

func (w *simOpen) column(tr *tracing, label string, rps float64, name string) (simLeg, error) {
	p, err := w.scale.Protocol(name, w.tr)
	if err != nil {
		return simLeg{}, err
	}
	netCfg := w.netConfig()
	netCfg.ServerQueueCap = openQueueCap
	prof := &load.Profile{Mode: load.Steady, Seed: w.seed, RPS: rps, Duration: w.window}
	return runLeg(tr, fmt.Sprintf("%s%g/%s", label, rps, name), name, func(wrap wrapFunc) (*exp.Result, error) {
		p, err := wrap(p)
		if err != nil {
			return nil, err
		}
		return exp.RunCtx(context.Background(), w.sizes.expConfig(w.seed), w.tr, p, netCfg, exp.Options{Load: prof})
	})
}

// withinLimit is the knee's criterion: the tail meets the latency limit
// and no backlog formed (nothing shed, the queue never filled).
func withinLimit(res *exp.Result) bool {
	return res.StartupDelay.Percentile(99) <= openKneeP99Ms &&
		res.Obs.ServerShed == 0 && res.Load.QueuePeak < openQueueCap
}

func (w *simOpen) round(tr *tracing) (*round, error) {
	var legs []simLeg
	for _, rps := range openColumns {
		for _, name := range simProtocols {
			leg, err := w.column(tr, "rps", rps, name)
			if err != nil {
				return nil, err
			}
			legs = append(legs, leg)
		}
	}
	var kneeErr error
	w.knee = knee(openKneeLo, openKneeHi, openKneeStep, func(rps float64) bool {
		if kneeErr != nil {
			return false
		}
		leg, err := w.column(tr, "knee", rps, "SocialTube")
		if err != nil {
			kneeErr = err
			return false
		}
		legs = append(legs, leg)
		return withinLimit(leg.Res)
	})
	if kneeErr != nil {
		return nil, kneeErr
	}
	return simRound(legs)
}

func (w *simOpen) report(rec *record, untraced, traced []*round) {
	r := untraced[0]
	// SocialTube over the five fixed columns.
	var serverB, peerB, offered, busy, shed, admitted int64
	peak := 0
	for _, rps := range openColumns {
		res := r.leg(fmt.Sprintf("rps%g/SocialTube", rps)).Res
		serverB += res.ServerBytes
		peerB += res.PeerBytes
		offered += res.Load.Offered
		busy += res.Load.Busy
		shed += res.Load.ServerShed
		admitted += res.Load.ServerAdmitted
		if res.Load.QueuePeak > peak {
			peak = res.Load.QueuePeak
		}
	}
	rec.set("server_byte_frac", ratio(float64(serverB), float64(serverB+peerB)), 0)
	rec.set("failed_frac", ratio(float64(shed+busy), float64(offered)), 0)
	ref := r.leg(fmt.Sprintf("rps%g/SocialTube", openRefRPS)).Res
	rec.set("startup_p50_ms", ref.StartupDelay.Percentile(50), ref.StartupDelay.Len())
	rec.set("startup_p99_ms", ref.StartupDelay.Percentile(99), ref.StartupDelay.Len())
	rec.set("knee_rps", w.knee, 0)
	rec.Notes = append(rec.Notes, "sim-open arrivals are exact in simulated time: generator lateness is 0 by construction")
	if traced == nil {
		return
	}
	reportSimLayers(rec, &w.simBase, traced)
	rec.set("simnet.queue_peak", float64(peak), 0)
	rec.set("simnet.admitted", float64(admitted), 0)
	rec.set("simnet.shed", float64(shed), 0)
	rec.set("load.offered", float64(offered), 0)
	rec.set("load.busy", float64(busy), 0)
}

// ---- shared reporting ------------------------------------------------

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportSimModel reports the closed-loop model metrics of the SocialTube
// leg (the paper's contribution).
func reportSimModel(rec *record, leg *simLeg) {
	res := leg.Res
	rec.set("server_byte_frac", ratio(float64(res.ServerBytes), float64(res.ServerBytes+res.PeerBytes)), 0)
	rec.set("peer_bw_p50", res.PeerBandwidth.Percentile(50), res.PeerBandwidth.Len())
}

// reportSimLayers reports what the traced pass saw inside each layer.
func reportSimLayers(rec *record, b *simBase, traced []*round) {
	if traced == nil {
		return
	}
	rec.set("trace.generate_s", b.generate.Seconds(), 1)
	rec.set("trace.bytes_per_user", float64(b.tr.Bytes())/float64(len(b.tr.Users)), 0)

	legs := traced[0].Legs
	var requests int64
	var events uint64
	var self time.Duration
	var mem memDelta
	queuePeak := 0
	for i := range legs {
		l := &legs[i]
		requests += l.Res.Requests
		events += l.Res.Engine.EventsFired
		if l.Res.Engine.HeapHighWater > queuePeak {
			queuePeak = l.Res.Engine.HeapHighWater
		}
		self += l.simBusy() - l.Stats.busy()
		mem.add(l.Mem)
	}
	rec.set("sim.engine.events_per_req", ratio(float64(events), float64(requests)), 0)
	rec.set("sim.engine.queue_peak", float64(queuePeak), 0)
	rec.set("exp.self_us_per_req", ratio(float64(self.Microseconds()), float64(requests)), int(requests))
	rec.set("exp.alloc_bytes_per_req", ratio(float64(mem.AllocBytes), float64(requests)), 0)
	rec.set("exp.mallocs_per_req", ratio(float64(mem.Mallocs), float64(requests)), 0)
	rec.set("exp.gc_cycles", float64(mem.GCCycles), 0)
	rec.set("exp.gc_pause_ms", float64(mem.GCPause.Microseconds())/1e3, 0)
	rec.set("exp.heap_live_peak_mb", float64(mem.HeapLivePeak)/(1<<20), 0)

	for _, p := range protoLayers {
		var st protoStats
		var req, msgs, peerHits, cacheHits, prefixHits int64
		var wall time.Duration
		var last *simLeg
		for i := range legs {
			l := &legs[i]
			if l.Proto != p.Proto {
				continue
			}
			st.merge(l.Stats)
			req += l.Res.Requests
			msgs += l.Res.Messages.Value()
			peerHits += l.Res.PeerHits.Value()
			cacheHits += l.Res.CacheHits.Value()
			prefixHits += l.Res.PrefixHits.Value()
			wall += l.Wall
			last = l
		}
		if last == nil {
			continue
		}
		rec.set(p.Layer+".busy_s", st.busy().Seconds(), 0)
		rec.set(p.Layer+".request_us", st.ops[opRequest].meanUs(), int(st.ops[opRequest].Count))
		rec.set(p.Layer+".finish_us", st.ops[opFinish].meanUs(), int(st.ops[opFinish].Count))
		if p.Layer != "baseline.pavod" {
			rec.set(p.Layer+".probe_us", st.ops[opProbe].meanUs(), int(st.ops[opProbe].Count))
		}
		rec.set(p.Layer+".req_per_s", ratio(float64(req), wall.Seconds()), 0)
		rec.set(p.Layer+".msgs_per_req", ratio(float64(msgs), float64(req)), 0)
		rec.set(p.Layer+".peer_hit_frac", ratio(float64(peerHits), float64(req)), 0)
		links := last.Res.LinksByVideoIndex
		rec.set(p.Layer+".links_last", links[len(links)-1].Mean(), links[len(links)-1].Len())
		if p.Layer == "core" {
			rec.set("core.cache_hit_frac", ratio(float64(cacheHits), float64(req)), 0)
			rec.set("core.prefix_hit_frac", ratio(float64(prefixHits), float64(req)), 0)
			sessions := st.ops[opJoin].Count
			churn := st.ops[opJoin].Total + st.ops[opLeave].Total + st.ops[opFail].Total
			rec.set("core.session_us", ratio(float64(churn.Nanoseconds())/1e3, float64(sessions)), int(sessions))
		}
		logf("  %-17s busy %7.3fs  request p50 %6.2fus p99 %7.2fus  finish p50 %6.2fus  probe p50 %6.2fus (n=%d)",
			p.Layer, st.busy().Seconds(),
			st.ops[opRequest].Hist.Percentile(50)/1e3, st.ops[opRequest].Hist.Percentile(99)/1e3,
			st.ops[opFinish].Hist.Percentile(50)/1e3, st.ops[opProbe].Hist.Percentile(50)/1e3, st.ops[opProbe].Count)
	}
}
