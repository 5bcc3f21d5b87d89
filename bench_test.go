package socialtube_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the corresponding result through internal/figures — the same
// code path the CLIs' -fig flag uses — and reports the headline series
// via b.ReportMetric so `go test -bench=. -benchmem` prints rows comparable
// to the paper. Absolute numbers come from a laptop-scale workload; the
// shapes (who wins, by what factor) are what reproduce the paper. See
// EXPERIMENTS.md for the paper-vs-measured record.

import (
	"sync"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/trace"
)

// benchScale is the workload all simulation benches share.
func benchScale() figures.Scale {
	s := figures.SmallScale()
	s.TraceUsers = 250
	s.TraceChannels = 200
	s.Sessions = 3
	s.VideosPerSession = 8
	return s
}

var (
	benchTraceOnce sync.Once
	benchTraceVal  *trace.Trace
	benchTraceErr  error
)

// benchTrace builds (once) the trace used by the trace-analysis benches.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		benchTraceVal, benchTraceErr = benchScale().BuildTrace()
	})
	if benchTraceErr != nil {
		b.Fatal(benchTraceErr)
	}
	return benchTraceVal
}

func benchTable(b *testing.B, build func() *figures.Table) {
	b.Helper()
	var tb *figures.Table
	for i := 0; i < b.N; i++ {
		tb = build()
	}
	if tb == nil || len(tb.String()) == 0 {
		b.Fatal("empty table")
	}
}

// benchTraceFigure regenerates one Section III figure through the
// registry (the CDF figures exist only there).
func benchTraceFigure(b *testing.B, id string) {
	b.Helper()
	figs, err := figures.Resolve(figures.GroupTrace, id)
	if err != nil {
		b.Fatal(err)
	}
	in := &figures.Inputs{Trace: benchTrace(b), MinShared: 3}
	benchTable(b, func() *figures.Table {
		rep, err := figs[0].Run(in)
		if err != nil {
			b.Fatal(err)
		}
		return rep.Tables[0]
	})
}

// --- Section III trace-analysis figures ---

func BenchmarkFig02VideoGrowth(b *testing.B) {
	tr := benchTrace(b)
	benchTable(b, func() *figures.Table { return figures.Fig02(tr) })
}

func BenchmarkFig03ChannelViewFreq(b *testing.B) {
	benchTraceFigure(b, "3")
}

func BenchmarkFig04Subscribers(b *testing.B) {
	benchTraceFigure(b, "4")
}

func BenchmarkFig05ViewsVsSubs(b *testing.B) {
	tr := benchTrace(b)
	benchTable(b, func() *figures.Table { return figures.Fig05(tr) })
	subs, views := tr.ViewsVsSubscriptions()
	b.ReportMetric(trace.Pearson(subs, views), "pearson")
}

func BenchmarkFig06VideosPerChannel(b *testing.B) {
	benchTraceFigure(b, "6")
}

func BenchmarkFig07ViewsPerVideo(b *testing.B) {
	benchTraceFigure(b, "7")
}

func BenchmarkFig08Favorites(b *testing.B) {
	tr := benchTrace(b)
	benchTable(b, func() *figures.Table { return figures.Fig08(tr) })
	b.ReportMetric(trace.Pearson(tr.ViewsPerVideo(), tr.FavoritesPerVideo()), "views_favs_pearson")
}

func BenchmarkFig09ZipfWithinChannel(b *testing.B) {
	tr := benchTrace(b)
	benchTable(b, func() *figures.Table { return figures.Fig09(tr) })
	ch := tr.ChannelPopularityClass(1.0)
	s, r2 := trace.ZipfFit(tr.WithinChannelViews(ch.ID))
	b.ReportMetric(s, "zipf_s")
	b.ReportMetric(r2, "zipf_r2")
}

func BenchmarkFig10ChannelClusters(b *testing.B) {
	tr := benchTrace(b)
	benchTable(b, func() *figures.Table { return figures.Fig10(tr, 3) })
	b.ReportMetric(tr.IntraCategoryEdgeFraction(3), "intra_category_fraction")
}

func BenchmarkFig11InterestsPerChannel(b *testing.B) {
	benchTraceFigure(b, "11")
}

func BenchmarkFig12InterestSimilarity(b *testing.B) {
	benchTraceFigure(b, "12")
}

func BenchmarkFig13InterestsPerUser(b *testing.B) {
	benchTraceFigure(b, "13")
}

// --- Section IV analytical models ---

func BenchmarkFig15OverheadModel(b *testing.B) {
	benchTable(b, figures.Fig15)
	m := core.DefaultMaintenanceModel()
	b.ReportMetric(m.SocialTube(10), "socialtube_links_m10")
	b.ReportMetric(m.NetTube(10), "nettube_links_m10")
}

func BenchmarkPrefetchAccuracy(b *testing.B) {
	benchTable(b, figures.PrefetchAccuracyTable)
	b.ReportMetric(core.PrefetchAccuracy(25, 1), "top1_accuracy")
	b.ReportMetric(core.PrefetchAccuracy(25, 4), "top4_accuracy")
}

// --- Section V simulation (PeerSim substitute) ---

func BenchmarkTable1Defaults(b *testing.B) {
	tr := benchTrace(b)
	s := benchScale()
	benchTable(b, func() *figures.Table { return figures.Table1(s, tr) })
}

func BenchmarkFig16aPeerBandwidthSim(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig16a(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFig17aStartupDelaySim(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig17a(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFig18aMaintenanceSim(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig18a(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFigChurnResilienceSim(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		tb, err := figures.FigChurn(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

// --- Section V TCP emulation (PlanetLab substitute) ---

func benchEmuScale() figures.EmuScale {
	return figures.EmuScale{
		Peers:            32,
		Sessions:         2,
		VideosPerSession: 6,
		WatchTime:        10 * time.Millisecond,
		Seed:             1,
	}
}

func BenchmarkFig16bPeerBandwidthEmu(b *testing.B) {
	s := benchEmuScale()
	tr, err := s.EmuTrace()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig16b(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFig17bStartupDelayEmu(b *testing.B) {
	s := benchEmuScale()
	tr, err := s.EmuTrace()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig17b(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFig18bMaintenanceEmu(b *testing.B) {
	s := benchEmuScale()
	tr, err := s.EmuTrace()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig18b(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkFigOutageResilienceEmu(b *testing.B) {
	s := benchEmuScale()
	tr, err := s.EmuTrace()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := figures.FigOutage(s, tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + tb.String())
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationNoInterOverlay disables the higher-level category
// cluster (N_h = 0): the channel-only structure loses the cross-channel
// rescue path.
func BenchmarkAblationNoInterOverlay(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.InterLinks = 0
		runAblation(b, s, tr, cfg, "no_inter_p50")
	}
}

// BenchmarkAblationTTL sweeps the query TTL and reports the search-overhead
// side of the tradeoff (query messages per request).
func BenchmarkAblationTTL(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for _, ttl := range []int{1, 2, 3} {
		ttl := ttl
		b.Run(ttlName(ttl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.TTL = ttl
				res, err := figures.RunSocialTube(s, tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, p50, _ := res.NormalizedPeerBandwidthPercentiles()
				b.ReportMetric(p50, "p50_peer_bw")
				if res.Requests > 0 {
					b.ReportMetric(float64(res.Messages.Value())/float64(res.Requests), "msgs_per_request")
				}
			}
		})
	}
}

// BenchmarkAblationLinkBudget sweeps N_l / N_h, the future-work tradeoff
// the paper's conclusion calls out.
func BenchmarkAblationLinkBudget(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	budgets := []struct {
		name   string
		nl, nh int
	}{
		{"Nl2_Nh4", 2, 4},
		{"Nl5_Nh10", 5, 10},
		{"Nl8_Nh16", 8, 16},
	}
	for _, budget := range budgets {
		budget := budget
		b.Run(budget.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.InnerLinks = budget.nl
				cfg.InterLinks = budget.nh
				runAblation(b, s, tr, cfg, "p50_peer_bw")
			}
		})
	}
}

// BenchmarkAblationCachePolicy compares the paper's unbounded session cache
// with LRU-bounded caches.
func BenchmarkAblationCachePolicy(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for _, bound := range []struct {
		name string
		max  int
	}{
		{"Unbounded", 0},
		{"LRU20", 20},
		{"LRU5", 5},
	} {
		bound := bound
		b.Run(bound.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.CacheVideos = bound.max
				runAblation(b, s, tr, cfg, "p50_peer_bw")
			}
		})
	}
}

// BenchmarkAblationPrefetch sweeps the prefetch count M and reports the
// resulting mean startup delay.
func BenchmarkAblationPrefetch(b *testing.B) {
	s := benchScale()
	tr := benchTrace(b)
	for _, m := range []int{0, 1, 3, 5} {
		m := m
		b.Run("M"+string(rune('0'+m)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.PrefetchCount = m
				res, err := figures.RunSocialTube(s, tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.StartupDelay.Mean(), "mean_startup_ms")
			}
		})
	}
}

func ttlName(ttl int) string {
	return "TTL" + string(rune('0'+ttl))
}

func runAblation(b *testing.B, s figures.Scale, tr *trace.Trace, cfg core.Config, metric string) {
	b.Helper()
	res, err := figures.RunSocialTube(s, tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, p50, _ := res.NormalizedPeerBandwidthPercentiles()
	b.ReportMetric(p50, metric)
}
