package emu

import (
	"context"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/vod"
)

// TestClusterSurvivesHeavyLoss drives a cluster under 20% message loss: the
// run must still complete, every request must be accounted for, and the
// server fallback must keep every video watchable.
func TestClusterSurvivesHeavyLoss(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultClusterConfig(ModeSocialTube)
	cfg.Peers = 10
	cfg.Sessions = 1
	cfg.VideosPerSession = 4
	cfg.WatchTime = 5 * time.Millisecond
	cfg.Conditions = &Conditions{
		Seed:       7,
		MinLatency: 200 * time.Microsecond,
		MaxLatency: 2 * time.Millisecond,
		LossP:      0.2,
	}
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Peers * cfg.Sessions * cfg.VideosPerSession)
	if got := res.Delivered(); got != want {
		t.Fatalf("requests accounted %d, want %d under loss", got, want)
	}
}

// TestPeerFallsBackWhenProviderDies kills a provider mid-cluster and checks
// the requester still completes via the server.
func TestPeerFallsBackWhenProviderDies(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	v := tr.Videos[0].ID

	provider := newTestPeer(t, DefaultPeerConfig(0, ModeSocialTube), tr, tk.Addr(), cond)
	if err := provider.Start(); err != nil {
		t.Fatal(err)
	}
	provider.RequestVideo(v)
	provider.FinishVideo(v)
	provider.Stop() // hard kill: the cached copy disappears from the net

	requester := startPeer(t, tr, tk, 1, ModeSocialTube, cond)
	rec := requester.RequestVideo(v)
	if rec.Source != vod.SourceServer && rec.Source != vod.SourcePeer {
		t.Fatalf("request failed outright: %+v", rec)
	}
	if rec.Source == vod.SourcePeer {
		t.Fatalf("dead provider served a video")
	}
}

// TestRequestAgainstDeadTracker: with the tracker gone, requests must not
// hang or panic; they degrade to server-miss results within the timeout.
func TestRequestAgainstDeadTracker(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk, err := NewTracker(DefaultTrackerConfig(), tr, cond)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	addr := tk.Addr()
	tk.Stop()

	cfg := DefaultPeerConfig(0, ModeSocialTube)
	cfg.RPCTimeout = 300 * time.Millisecond
	p := newTestPeer(t, cfg, tr, addr, cond)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	done := make(chan Record, 1)
	go func() { done <- p.RequestVideo(tr.Videos[0].ID) }()
	select {
	case <-done:
		// Completed without hanging; source is irrelevant.
	case <-time.After(5 * time.Second):
		t.Fatal("request against dead tracker hung")
	}
}
