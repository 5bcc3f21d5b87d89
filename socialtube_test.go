package socialtube_test

import (
	"context"
	"testing"
	"time"

	socialtube "github.com/socialtube/socialtube"
)

// smallTrace builds a fast trace through the public API only.
func smallTrace(t *testing.T) *socialtube.Trace {
	t.Helper()
	cfg := socialtube.DefaultTraceConfig()
	cfg.Seed = 61
	cfg.Channels = 80
	cfg.Users = 200
	cfg.Categories = 8
	cfg.MaxInterestsPerUser = 8
	tr, err := socialtube.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPublicAPIEndToEndSimulation(t *testing.T) {
	tr := smallTrace(t)
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := socialtube.DefaultExperimentConfig()
	cfg.Sessions = 2
	cfg.VideosPerSession = 5
	cfg.WatchScale = 0.05
	cfg.MeanOffTime = 60 * time.Second
	cfg.Horizon = 6 * time.Hour
	res, err := socialtube.RunExperimentCtx(context.Background(), cfg, tr, sys,
		socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests through the public API")
	}
	_, p50, _ := res.NormalizedPeerBandwidthPercentiles()
	if p50 < 0 || p50 > 1 {
		t.Fatalf("median peer bandwidth %v outside [0,1]", p50)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	tr := smallTrace(t)
	if _, err := socialtube.NewNetTube(socialtube.DefaultNetTubeConfig(), tr); err != nil {
		t.Fatal(err)
	}
	if _, err := socialtube.NewPAVoD(socialtube.DefaultPAVoDConfig(), tr); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIProtocolInterface(t *testing.T) {
	tr := smallTrace(t)
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	var p socialtube.Protocol = sys
	node := int(tr.Users[0].ID)
	p.Join(node)
	rec := p.Request(node, tr.Videos[0].ID)
	if rec.Source != socialtube.SourceServer {
		t.Fatalf("first request source = %v, want server", rec.Source)
	}
	p.Finish(node, tr.Videos[0].ID)
	if rec := p.Request(node, tr.Videos[0].ID); rec.Source != socialtube.SourceCache {
		t.Fatalf("cached request source = %v", rec.Source)
	}
}

func TestPublicAPIAnalyticalModels(t *testing.T) {
	m := socialtube.DefaultMaintenanceModel()
	if m.SocialTube(5) >= m.NetTube(5) {
		t.Fatal("Fig. 15 crossover missing at m=5")
	}
	if acc := socialtube.PrefetchAccuracy(25, 1); acc < 0.25 || acc > 0.28 {
		t.Fatalf("prefetch accuracy %v, paper ≈0.262", acc)
	}
}

func TestPublicAPIEmulation(t *testing.T) {
	tr := smallTrace(t)
	cfg := socialtube.DefaultClusterConfig(socialtube.ModeSocialTube)
	cfg.Peers = 8
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 5 * time.Millisecond
	res, err := socialtube.RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered() == 0 {
		t.Fatal("emulated cluster served nothing")
	}
}

func TestPublicAPITraceSummary(t *testing.T) {
	tr := smallTrace(t)
	s := tr.Summarize()
	if s.Users != 200 || s.Channels != 80 {
		t.Fatalf("summary %+v does not match config", s)
	}
}
