// Package figures regenerates every table and figure of the paper's
// evaluation. Each FigNN function runs the relevant workload and returns a
// plain-text table whose rows mirror what the paper plots; the bench
// harness and the CLIs both call into this package so the numbers are
// produced by exactly one code path.
package figures

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Scale sizes a run. Small finishes in seconds (unit tests, quick benches);
// Paper approaches the paper's Table I scale.
type Scale struct {
	// TraceChannels / TraceUsers size the synthetic trace.
	TraceChannels int
	TraceUsers    int
	Categories    int
	// Sessions / VideosPerSession size the workload.
	Sessions         int
	VideosPerSession int
	// WatchScale compresses playback in the simulator.
	WatchScale float64
	// ProbeInterval overrides the maintenance probe period (0 keeps the
	// Table I default of 10 min). Compressed-time workloads need a
	// proportionally compressed period or sessions end before the first
	// probe round ever fires.
	ProbeInterval time.Duration
	// VideoCountMultiplier scales the catalog toward the paper's 101k
	// videos (see trace.Config.VideoCountMultiplier).
	VideoCountMultiplier float64
	// Seed drives everything.
	Seed int64
	// Tracer, when non-nil, is installed on every protocol the scale
	// builds (the -trace-out path). It must be safe for concurrent Emit:
	// the figure runner runs protocols in parallel.
	Tracer obs.Tracer
}

// SmallScale returns a seconds-long configuration.
func SmallScale() Scale {
	return Scale{
		TraceChannels:    100,
		TraceUsers:       300,
		Categories:       10,
		Sessions:         4,
		VideosPerSession: 8,
		WatchScale:       0.05,
		Seed:             1,
	}
}

// PaperScale returns the paper's Table I proportions (545 channels, 10,000
// nodes, 25 sessions of 10 videos). Running all three protocols at this
// scale takes minutes.
func PaperScale() Scale {
	return Scale{
		TraceChannels:    545,
		TraceUsers:       10_000,
		Categories:       18,
		Sessions:         25,
		VideosPerSession: 10,
		WatchScale:       1,
		// Table I's 101,121 videos over 545 channels: the simulated
		// channels hold ≈6× the crawl-wide Fig. 6 distribution.
		VideoCountMultiplier: 4.4,
		Seed:                 1,
	}
}

// ScalePreset resolves a -scale flag value for the trace-sharing figures.
func ScalePreset(name string) (Scale, error) {
	preset, ok := map[string]func() Scale{"small": SmallScale, "paper": PaperScale}[name]
	if !ok {
		return Scale{}, fmt.Errorf("unknown scale %q (want small or paper)", name)
	}
	return preset(), nil
}

// BuildTrace generates the scale's synthetic trace.
func (s Scale) BuildTrace() (*trace.Trace, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Channels = s.TraceChannels
	cfg.Users = s.TraceUsers
	cfg.Categories = s.Categories
	if cfg.MaxInterestsPerUser > s.Categories {
		cfg.MaxInterestsPerUser = s.Categories
	}
	if s.VideoCountMultiplier > 0 {
		cfg.VideoCountMultiplier = s.VideoCountMultiplier
		// Keep the per-channel cap above the scaled tail.
		cfg.MaxVideosPerChannel = int(float64(cfg.MaxVideosPerChannel) * s.VideoCountMultiplier)
	}
	return trace.Generate(cfg)
}

func (s Scale) expConfig() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Sessions = s.Sessions
	cfg.VideosPerSession = s.VideosPerSession
	cfg.WatchScale = s.WatchScale
	if s.WatchScale < 1 {
		// Compressed playback shrinks sessions; shrink off-times to
		// keep the on/off duty cycle comparable.
		cfg.MeanOffTime = 60 * time.Second
		cfg.Horizon = 24 * time.Hour
	}
	if s.ProbeInterval > 0 {
		cfg.ProbeInterval = s.ProbeInterval
	}
	return cfg
}

// cdfFractions are the quantiles the CDF figures report.
var cdfFractions = []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99}

func cdfTable(title, valueName string, values []float64) *Table {
	t := NewTable(title, "fraction", valueName)
	for _, pt := range trace.CDF(values, cdfFractions) {
		t.AddRow(pt.Fraction, pt.Value)
	}
	return t
}

// Fig02 prints cumulative video uploads over time (scalability, O1).
func Fig02(tr *trace.Trace) *Table {
	t := NewTable("Fig. 2 — videos added over time (cumulative)", "bucket", "date", "cumulativeVideos")
	growth := tr.VideoGrowth(12)
	span := tr.End.Sub(tr.Start)
	for i, n := range growth {
		at := tr.Start.Add(span * time.Duration(i+1) / 12)
		t.AddRow(i+1, at.Format("2006-01"), n)
	}
	return t
}

// Fig05 prints the channel views vs subscriptions correlation.
func Fig05(tr *trace.Trace) *Table {
	subs, views := tr.ViewsVsSubscriptions()
	t := NewTable("Fig. 5 — channel views vs subscriptions", "metric", "value")
	t.AddRow("channels", len(subs))
	t.AddRow("pearson", trace.Pearson(subs, views))
	t.AddRow("logPearson", trace.LogPearson(subs, views))
	// A few representative scatter points, ordered by subscribers.
	type pt struct{ s, v float64 }
	pts := make([]pt, len(subs))
	for i := range subs {
		pts[i] = pt{subs[i], views[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].s < pts[j].s })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		idx := int(q * float64(len(pts)-1))
		t.AddRow(fmt.Sprintf("subs@p%.0f", q*100), pts[idx].s)
		t.AddRow(fmt.Sprintf("views@p%.0f", q*100), pts[idx].v)
	}
	return t
}

// Fig08 prints the CDF of favourites per video plus the views correlation.
func Fig08(tr *trace.Trace) *Table {
	t := cdfTable("Fig. 8 — CDF of favourites per video", "favorites", tr.FavoritesPerVideo())
	t.AddRow(0, trace.Pearson(tr.ViewsPerVideo(), tr.FavoritesPerVideo()))
	return t
}

// Fig09 prints within-channel view counts for a high-, medium- and
// low-popularity channel together with Zipf fits.
func Fig09(tr *trace.Trace) *Table {
	t := NewTable("Fig. 9 — video popularity within channels (Zipf)", "channel", "rank", "views")
	classes := []struct {
		name     string
		quantile float64
	}{
		{"high", 1.0}, {"medium", 0.5}, {"low", 0.1},
	}
	for _, c := range classes {
		ch := tr.ChannelPopularityClass(c.quantile)
		if ch == nil {
			continue
		}
		views := tr.WithinChannelViews(ch.ID)
		for i, v := range views {
			if i >= 10 {
				break
			}
			t.AddRow(c.name, i+1, v)
		}
		s, r2 := trace.ZipfFit(views)
		t.AddRow(c.name+"-zipf-s", 0, s)
		t.AddRow(c.name+"-zipf-r2", 0, r2)
	}
	return t
}

// Fig10 prints the shared-subscriber channel graph's clustering statistics.
func Fig10(tr *trace.Trace, minShared int) *Table {
	t := NewTable(
		fmt.Sprintf("Fig. 10 — channel graph via ≥%d shared subscribers", minShared),
		"metric", "value")
	edges := tr.SharedSubscriberGraph(minShared)
	t.AddRow("edges", len(edges))
	t.AddRow("intraCategoryFraction", tr.IntraCategoryEdgeFraction(minShared))
	same, pairs := 0, 0
	for i := 0; i < len(tr.Channels); i++ {
		for j := i + 1; j < len(tr.Channels); j++ {
			pairs++
			if tr.Channels[i].Primary == tr.Channels[j].Primary {
				same++
			}
		}
	}
	if pairs > 0 {
		t.AddRow("chanceBaseline", float64(same)/float64(pairs))
	}
	return t
}

// Fig15 prints the analytical maintenance-overhead model.
func Fig15() *Table {
	m := core.DefaultMaintenanceModel()
	t := NewTable(
		"Fig. 15 — modelled overlay maintenance overhead (u=500, u_c=5000, u_t=25000)",
		"videosWatched", "SocialTube", "NetTube")
	for _, videos := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		t.AddRow(videos, m.SocialTube(videos), m.NetTube(videos))
	}
	return t
}

// pavodConfig scales PA-VoD's readiness delay with the compressed playback
// so its physics stay consistent under time compression.
func (s Scale) pavodConfig() baseline.PAVoDConfig {
	cfg := baseline.DefaultPAVoDConfig()
	cfg.Seed = s.Seed
	cfg.ReadyDelay = time.Duration(float64(cfg.ReadyDelay) * s.WatchScale)
	// PA-VoD localizes peer assistance within an ISP (Huang et al.); an
	// ISP serves on the order of 500 of the experiment's users, so the
	// ISP count grows with the population. Below ~1000 users locality is
	// left off: a small sample effectively shares one access network.
	if s.TraceUsers >= 1000 {
		cfg.ISPs = s.TraceUsers / 500
	}
	return cfg
}

// Protocol builds one comparison system by name ("SocialTube", "NetTube"
// or "PA-VoD") over a trace at this scale, tracer attached.
func (s Scale) Protocol(name string, tr *trace.Trace) (vod.Protocol, error) {
	return s.protocol(name, tr, true)
}

// protocol is Protocol with prefetching optionally off (Fig. 17's "w/o
// PF" variants; PA-VoD never prefetches).
func (s Scale) protocol(name string, tr *trace.Trace, prefetch bool) (vod.Protocol, error) {
	var (
		p   vod.Protocol
		err error
	)
	switch name {
	case "SocialTube":
		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		if !prefetch {
			cfg.PrefetchCount = 0
		}
		p, err = core.New(cfg, tr)
	case "NetTube":
		cfg := baseline.DefaultNetTubeConfig()
		cfg.Seed = s.Seed
		if !prefetch {
			cfg.PrefetchCount = 0
		}
		p, err = baseline.NewNetTube(cfg, tr)
	case "PA-VoD":
		p, err = baseline.NewPAVoD(s.pavodConfig(), tr)
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
	if err != nil {
		return nil, err
	}
	if t, ok := p.(obs.Traceable); ok && s.Tracer != nil {
		t.SetTracer(s.Tracer)
	}
	return p, nil
}

// simJob is one simulation a figure asks for: the protocol to build, the
// network it runs over and the run options (fault plan, timeline window,
// open-loop profile). build is called once per run and attaches the
// scale's tracer.
type simJob struct {
	label string
	build func(s Scale, tr *trace.Trace) (vod.Protocol, error)
	net   simnet.Config
	opts  exp.Options
}

// protocolJob is the common case: one of the named comparison systems
// over the default network.
func protocolJob(name string) simJob { return variant{name, name, true}.job() }

func protocolJobs(names []string) []simJob {
	jobs := make([]simJob, len(names))
	for i, name := range names {
		jobs[i] = protocolJob(name)
	}
	return jobs
}

// run executes one job. It is the only place in this package that builds
// a protocol for a run; the run covers the whole trace in one cell.
func (s Scale) run(tr *trace.Trace, j simJob) (*exp.Result, error) {
	p, err := j.build(s, tr)
	var res *exp.Result
	if err == nil {
		res, err = exp.RunCtx(context.Background(), s.expConfig(), tr, p, j.net, j.opts)
	}
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", j.label, err)
	}
	return res, nil
}

// runJobs executes the jobs over one trace and returns their results in
// job order. Jobs are independent single-threaded deterministic
// simulations (own RNG, own simnet, read-only trace), so they run side by
// side, bounded by GOMAXPROCS, and only wall-clock time changes. Protocols
// are built inside their worker so each one's node state is released as
// soon as its run ends. done, when non-nil, is called — possibly
// concurrently — as each job finishes, with its wall time and how many
// jobs run at once.
func (s Scale) runJobs(tr *trace.Trace, jobs []simJob, done func(i int, res *exp.Result, wall time.Duration, workers int)) ([]*exp.Result, error) {
	results := make([]*exp.Result, len(jobs))
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	sem := make(chan struct{}, workers)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			results[i], errs[i] = s.run(tr, jobs[i])
			if errs[i] == nil && done != nil {
				done(i, results[i], time.Since(start), workers)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunAllProtocols executes the standard workload for each of the three
// protocols and returns the raw results keyed by protocol name (the
// socialtube-sim -json path).
func RunAllProtocols(s Scale, tr *trace.Trace) (map[string]*exp.Result, error) {
	results, err := s.runJobs(tr, protocolJobs(protoOrder), nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*exp.Result, len(protoOrder))
	for i, name := range protoOrder {
		out[name] = results[i]
	}
	return out, nil
}

// countersTable renders the runs' counter snapshots side by side, one column
// per run in the given order, one row per counter (declaration order, so the
// output is byte-stable), followed by the engine's accounting. Every
// simulator figure carries one: not just its metric but the protocol
// activity that generated it.
func countersTable(title string, names []string, results []*exp.Result) *Table {
	headers := make([]string, 0, len(names)+1)
	headers = append(headers, "counter")
	headers = append(headers, names...)
	t := NewTable(title, headers...)
	if len(results) == 0 {
		return t
	}
	addRow := func(name string, value func(run int) any) {
		cells := make([]any, 0, len(results)+1)
		cells = append(cells, name)
		for i := range results {
			cells = append(cells, value(i))
		}
		t.AddRow(cells...)
	}
	perRun := make([][]obs.CounterRow, len(results))
	for i, r := range results {
		perRun[i] = r.Obs.Rows()
	}
	for ri, row := range perRun[0] {
		addRow(row.Name, func(i int) any { return perRun[i][ri].Value })
	}
	addRow("engineEventsFired", func(i int) any { return results[i].Engine.EventsFired })
	addRow("engineEventsScheduled", func(i int) any { return results[i].Engine.EventsScheduled })
	addRow("engineHeapHighWater", func(i int) any { return results[i].Engine.HeapHighWater })
	return t
}

// Table1 prints the experiment's default parameters alongside the paper's.
func Table1(s Scale, tr *trace.Trace) *Table {
	cfg := s.expConfig()
	net := simnet.DefaultConfig()
	t := NewTable("Table I — experiment parameters (paper default / this run)",
		"parameter", "paper", "thisRun")
	t.AddRow("simulation duration", "3 days", cfg.Horizon.String())
	t.AddRow("number of nodes", 10000, len(tr.Users))
	t.AddRow("number of videos", 101121, len(tr.Videos))
	t.AddRow("number of channels", 545, len(tr.Channels))
	t.AddRow("chunks per video", 2, vod.DefaultChunksPerVideo)
	t.AddRow("video bitrate (kbps)", 320, vod.DefaultBitrateBps/1000)
	t.AddRow("server bandwidth (mbps)", 50, net.ServerUplinkBps/1_000_000)
	t.AddRow("inner links N_l", 5, core.DefaultConfig().InnerLinks)
	t.AddRow("inter links N_h", 10, core.DefaultConfig().InterLinks)
	t.AddRow("TTL", 2, core.DefaultConfig().TTL)
	t.AddRow("videos per session", 10, cfg.VideosPerSession)
	t.AddRow("sessions per user", 25, cfg.Sessions)
	t.AddRow("mean off time (s)", 500, int(cfg.MeanOffTime.Seconds()))
	t.AddRow("probe interval (min)", 10, int(cfg.ProbeInterval.Minutes()))
	return t
}

// PrefetchAccuracyTable prints the §IV-B prefetch-accuracy analysis.
func PrefetchAccuracyTable() *Table {
	t := NewTable("§IV-B — prefetch accuracy (Zipf s=1, 25-video channel)",
		"prefetchedVideos", "accuracy")
	for m := 1; m <= 6; m++ {
		t.AddRow(m, core.PrefetchAccuracy(25, m))
	}
	return t
}
