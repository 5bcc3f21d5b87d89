package exp

import (
	"errors"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

func expTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 41
	cfg.Channels = 40
	cfg.Users = 400
	cfg.Categories = 10
	cfg.MaxInterestsPerUser = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testPicker(t *testing.T, tr *trace.Trace) *vod.Picker {
	t.Helper()
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	return picker
}

// testRunner is newRunner with the run's picker built over tr, as drive
// builds it.
func testRunner(t *testing.T, cfg Config, tr *trace.Trace, proto vod.Protocol) *runner {
	t.Helper()
	r, err := newRunner(cfg, tr, testPicker(t, tr), proto, simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// quickConfig shrinks the workload so the full matrix of tests stays fast.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Sessions = 4
	cfg.VideosPerSession = 8
	cfg.WatchScale = 0.05
	cfg.MeanOffTime = 60 * time.Second
	cfg.Horizon = 12 * time.Hour
	return cfg
}

func runProto(t *testing.T, tr *trace.Trace, proto vod.Protocol) *Result {
	t.Helper()
	res, err := Run(quickConfig(), tr, proto, simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func socialTube(t *testing.T, tr *trace.Trace) *core.System {
	t.Helper()
	s, err := core.New(core.DefaultConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func netTube(t *testing.T, tr *trace.Trace) *baseline.NetTube {
	t.Helper()
	nt, err := baseline.NewNetTube(baseline.DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func paVoD(t *testing.T, tr *trace.Trace) *baseline.PAVoD {
	t.Helper()
	pv, err := baseline.NewPAVoD(baseline.DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return pv
}

// TestZeroInterLinkBudgetHoldsNoInterLinks runs the N_h = 0 ablation end to
// end: a zero budget must hold nothing, so server assist cannot grow
// inter-links that the category phase would then flood.
func TestZeroInterLinkBudgetHoldsNoInterLinks(t *testing.T) {
	tr := expTrace(t)
	pcfg := core.DefaultConfig()
	pcfg.InterLinks = 0
	s, err := core.New(pcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Sessions, cfg.VideosPerSession = 3, 6
	if _, err := Run(cfg, tr, s, simnet.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	holding := 0
	for u := range tr.Users {
		if s.InterLinks(u) != 0 {
			holding++
		}
	}
	if holding != 0 {
		t.Fatalf("%d of %d nodes hold inter-links under N_h = 0", holding, len(tr.Users))
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sessions", func(c *Config) { c.Sessions = 0 }},
		{"zero videos", func(c *Config) { c.VideosPerSession = 0 }},
		{"zero off time", func(c *Config) { c.MeanOffTime = 0 }},
		{"zero probe", func(c *Config) { c.ProbeInterval = 0 }},
		{"negative horizon", func(c *Config) { c.Horizon = -1 }},
		{"zero watch scale", func(c *Config) { c.WatchScale = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	tr := expTrace(t)
	if _, err := Run(quickConfig(), nil, socialTube(t, tr), simnet.DefaultConfig()); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := Run(quickConfig(), tr, nil, simnet.DefaultConfig()); err == nil {
		t.Fatal("nil protocol accepted")
	}
	bad := quickConfig()
	bad.Sessions = -1
	if _, err := Run(bad, tr, socialTube(t, tr), simnet.DefaultConfig()); err == nil {
		t.Fatal("bad config accepted")
	}
	badNet := simnet.DefaultConfig()
	badNet.ServerUplinkBps = 0
	if _, err := Run(quickConfig(), tr, socialTube(t, tr), badNet); err == nil {
		t.Fatal("bad network config accepted")
	}
	negWindow := Options{TimelineWindow: -time.Minute}
	if _, err := RunCtx(t.Context(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(), negWindow); !errors.Is(err, dist.ErrBadParameter) {
		t.Fatalf("negative timeline window: err = %v, want a wrapped dist.ErrBadParameter", err)
	}
}

func TestRunCompletesAndAccounts(t *testing.T) {
	tr := expTrace(t)
	res := runProto(t, tr, socialTube(t, tr))
	if res.Protocol != "SocialTube" {
		t.Errorf("protocol name %q", res.Protocol)
	}
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	total := res.CacheHits.Value() + res.PeerHits.Value() + res.ServerHits.Value()
	if total != res.Requests {
		t.Fatalf("hits %d != requests %d (every request must be served)", total, res.Requests)
	}
	if res.PeerBandwidth.Len() == 0 {
		t.Fatal("no per-node bandwidth samples")
	}
	if res.StartupDelay.Len() == 0 {
		t.Fatal("no startup delay samples")
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if lo, hi := res.PeerBandwidth.Min(), res.PeerBandwidth.Max(); lo < 0 || hi > 1 {
		t.Fatalf("normalized bandwidth range [%v, %v] outside [0,1]", lo, hi)
	}
	if res.StartupDelay.Min() < 0 {
		t.Fatalf("negative startup delay %v", res.StartupDelay.Min())
	}
}

func TestAllProtocolsComplete(t *testing.T) {
	tr := expTrace(t)
	protos := []vod.Protocol{socialTube(t, tr), netTube(t, tr), paVoD(t, tr)}
	for _, p := range protos {
		res, err := Run(quickConfig(), tr, p, simnet.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Requests == 0 {
			t.Fatalf("%s issued no requests", p.Name())
		}
	}
}

// TestFig16Ordering reproduces the paper's headline normalized peer
// bandwidth ordering: SocialTube > NetTube > PA-VoD at the median.
func TestFig16Ordering(t *testing.T) {
	tr := expTrace(t)
	st := runProto(t, tr, socialTube(t, tr))
	nt := runProto(t, tr, netTube(t, tr))
	pv := runProto(t, tr, paVoD(t, tr))
	_, stMed, _ := st.NormalizedPeerBandwidthPercentiles()
	_, ntMed, _ := nt.NormalizedPeerBandwidthPercentiles()
	_, pvMed, _ := pv.NormalizedPeerBandwidthPercentiles()
	if !(stMed > ntMed && ntMed > pvMed) {
		t.Fatalf("median peer bandwidth ordering violated: SocialTube %.3f, NetTube %.3f, PA-VoD %.3f",
			stMed, ntMed, pvMed)
	}
}

// TestFig17PrefetchingReducesStartupDelay: SocialTube with prefetching beats
// SocialTube without.
func TestFig17PrefetchingReducesStartupDelay(t *testing.T) {
	tr := expTrace(t)
	withPF := runProto(t, tr, socialTube(t, tr))
	noCfg := core.DefaultConfig()
	noCfg.PrefetchCount = 0
	noPFSys, err := core.New(noCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	noPF := runProto(t, tr, noPFSys)
	if withPF.PrefixHits.Value() == 0 {
		t.Fatal("prefetching produced no prefix hits")
	}
	if withPF.StartupDelay.Mean() >= noPF.StartupDelay.Mean() {
		t.Fatalf("prefetching did not reduce mean startup delay: with %.1fms, without %.1fms",
			withPF.StartupDelay.Mean(), noPF.StartupDelay.Mean())
	}
}

// TestFig18MaintenanceShape: NetTube's links grow with videos watched in a
// session while SocialTube's stay bounded by N_l + N_h.
func TestFig18MaintenanceShape(t *testing.T) {
	tr := expTrace(t)
	st := runProto(t, tr, socialTube(t, tr))
	nt := runProto(t, tr, netTube(t, tr))
	k := len(nt.LinksByVideoIndex) - 1
	ntFirst := nt.LinksByVideoIndex[0].Mean()
	ntLast := nt.LinksByVideoIndex[k].Mean()
	if ntLast <= ntFirst {
		t.Fatalf("NetTube links did not grow within session: first %.2f, last %.2f", ntFirst, ntLast)
	}
	budget := float64(core.DefaultConfig().InnerLinks + core.DefaultConfig().InterLinks)
	for i := range st.LinksByVideoIndex {
		if m := st.LinksByVideoIndex[i].Mean(); m > budget {
			t.Fatalf("SocialTube mean links %.2f exceed budget %.0f at video %d", m, budget, i+1)
		}
	}
	if stLast := st.LinksByVideoIndex[k].Mean(); ntLast <= stLast {
		t.Fatalf("NetTube final links %.2f should exceed SocialTube %.2f", ntLast, stLast)
	}
}

// TestServerBytesOrdering: more peer hits mean fewer server bytes.
func TestServerBytesOrdering(t *testing.T) {
	tr := expTrace(t)
	st := runProto(t, tr, socialTube(t, tr))
	pv := runProto(t, tr, paVoD(t, tr))
	if st.ServerBytes >= pv.ServerBytes {
		t.Fatalf("SocialTube server bytes %d should be below PA-VoD %d", st.ServerBytes, pv.ServerBytes)
	}
}

func TestHorizonBoundsRun(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.Horizon = time.Hour
	res, err := Run(cfg, tr, socialTube(t, tr), simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime > cfg.Horizon {
		t.Fatalf("simulated %v beyond horizon %v", res.SimulatedTime, cfg.Horizon)
	}
}

func TestProbesRunForMaintainers(t *testing.T) {
	tr := expTrace(t)
	res, err := Run(quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbeMessages.Value() == 0 {
		t.Fatal("no probe messages despite Maintainer protocol and churn")
	}
}

func TestPAVoDHasNoProbes(t *testing.T) {
	tr := expTrace(t)
	res := runProto(t, tr, paVoD(t, tr))
	if res.ProbeMessages.Value() != 0 {
		t.Fatal("PA-VoD should not probe (no overlay)")
	}
}
