package emu

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
)

func fastClusterConfig(mode Mode) ClusterConfig {
	cfg := DefaultClusterConfig(mode)
	cfg.Peers = 8
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 2 * time.Millisecond
	cfg.MeanOffTime = 2 * time.Millisecond
	cfg.Conditions = fastConditions()
	return cfg
}

// waitGoroutines polls until the goroutine count returns to near its
// baseline, failing the test if lingering handlers never wind down.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestRunClusterCtxCancelReleasesEverything pins the shutdown fix:
// cancelling the context mid-run returns context.Canceled promptly and
// leaves no tracker, peer, probe or fault-driver goroutine behind.
func TestRunClusterCtxCancelReleasesEverything(t *testing.T) {
	tr := emuTrace(t)
	before := runtime.NumGoroutine()
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Sessions = 50 // far more work than the test allows to finish
	cfg.WatchTime = 20 * time.Millisecond
	cfg.Faults = &faults.Plan{
		Seed:    1,
		Outages: []faults.Outage{{At: time.Hour, Duration: time.Minute}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := RunClusterCtx(ctx, cfg, tr)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunClusterCtx did not return after cancellation")
	}
	waitGoroutines(t, before)
}

// TestRunClusterEarlyErrorReleasesEverything forces an error after the
// tracker and all peers have started (a bad metrics address) and checks
// they are all shut down on the early-return path.
func TestRunClusterEarlyErrorReleasesEverything(t *testing.T) {
	tr := emuTrace(t)
	before := runtime.NumGoroutine()
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.MetricsAddr = "definitely:not:an:addr"
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err == nil {
		t.Fatal("bad metrics address accepted")
	}
	waitGoroutines(t, before)
}

func TestRunClusterCtxAlreadyCancelled(t *testing.T) {
	tr := emuTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunClusterCtx(ctx, fastClusterConfig(ModeSocialTube), tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunClusterRejectsBadPlan(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Faults = &faults.Plan{Waves: []faults.ChurnWave{{At: time.Second}}}
	if _, err := RunClusterCtx(context.Background(), cfg, tr); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestClusterChurnCrashesAndRejoins runs a churn wave against a live
// cluster: crashed peers stop answering, rejoin, and every request is
// still accounted for.
func TestClusterChurnCrashesAndRejoins(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Sessions = 2
	cfg.VideosPerSession = 4
	cfg.WatchTime = 5 * time.Millisecond
	cfg.Faults = &faults.Plan{
		Seed: 7,
		Waves: []faults.ChurnWave{
			{At: 5 * time.Millisecond, Fraction: 0.25, DownFor: 15 * time.Millisecond},
		},
	}
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("churn wave crashed nobody")
	}
	if res.Rejoins != res.Crashes {
		t.Fatalf("crashes=%d but rejoins=%d (every wave sets DownFor)", res.Crashes, res.Rejoins)
	}
	total := res.Delivered()
	want := int64(cfg.Peers * cfg.Sessions * cfg.VideosPerSession)
	if total != want {
		t.Fatalf("requests lost to churn: %d accounted of %d", total, want)
	}
}

// TestClusterTrackerOutage pins the emu outage model: requests issued
// while the tracker is down either ride out the retry budget or fail,
// but the per-source hit counts still sum to the request total
// (failed requests are contained in ServerHits).
func TestClusterTrackerOutage(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Peers = 6
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 5 * time.Millisecond
	cfg.Peer.RPCTimeout = 30 * time.Millisecond
	cfg.Peer.MaxRetries = 1
	cfg.Peer.RetryBackoff = 2 * time.Millisecond
	cfg.Faults = &faults.Plan{
		Seed:    3,
		Outages: []faults.Outage{{At: 0, Duration: 300 * time.Millisecond}},
	}
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutageRequests == 0 {
		t.Fatal("no requests overlapped the outage window")
	}
	if res.FailedRequests == 0 {
		t.Fatal("a 300ms outage with a ~60ms retry budget failed no requests")
	}
	if res.FailedRequests > res.ServerHits.Value() {
		t.Fatalf("failed requests (%d) not contained in server hits (%d)", res.FailedRequests, res.ServerHits.Value())
	}
	if res.OutageServed > res.OutageRequests {
		t.Fatalf("outage served %d of only %d outage requests", res.OutageServed, res.OutageRequests)
	}
	total := res.Delivered()
	want := int64(cfg.Peers * cfg.Sessions * cfg.VideosPerSession)
	if total != want {
		t.Fatalf("requests lost during outage: %d accounted of %d", total, want)
	}
}

// TestClusterPeerTemplateDisablesRetries: the cluster copies its Peer
// template as it stands, so MaxRetries 0 means what PeerConfig documents —
// no retrying. (The "override when positive" knob this replaced kept the
// default two retries.) Against a tracker that stays dark, one retry
// sequence at that default sleeps 1 s + 2 s of backoff; with retries off a
// failed call costs only its 20 ms timeout.
func TestClusterPeerTemplateDisablesRetries(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Peers, cfg.VideosPerSession = 2, 1
	cfg.ProbeInterval = 0
	cfg.Peer.RPCTimeout = 20 * time.Millisecond
	cfg.Peer.MaxRetries = 0
	cfg.Peer.RetryBackoff = time.Second
	cfg.Faults = &faults.Plan{Outages: []faults.Outage{{At: 0, Duration: time.Minute}}}
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests == 0 {
		t.Fatal("no request failed: the tracker was never dark, so no call could have retried")
	}
	if res.Elapsed >= time.Second {
		t.Fatalf("run took %v: some failed call slept through a retry backoff with MaxRetries 0", res.Elapsed)
	}
}

// TestPeerCrashRejoin drives the crash primitive directly: a crashed
// peer answers nothing (not even probes); a rejoined one answers again.
func TestPeerCrashRejoin(t *testing.T) {
	tr := emuTrace(t)
	cond := fastConditions()
	tk := startTracker(t, tr, cond)
	p := startPeer(t, tr, tk, 0, ModeSocialTube, cond)

	if _, err := rpc(p.Addr(), &Message{Type: MsgProbe, From: 99}, time.Second); err != nil {
		t.Fatalf("healthy peer refused a probe: %v", err)
	}
	p.Crash()
	if !p.IsCrashed() {
		t.Fatal("Crash did not mark the peer crashed")
	}
	if _, err := rpc(p.Addr(), &Message{Type: MsgProbe, From: 99}, 200*time.Millisecond); err == nil {
		t.Fatal("crashed peer answered a probe")
	}
	p.Rejoin()
	if p.IsCrashed() {
		t.Fatal("Rejoin left the peer crashed")
	}
	if _, err := rpc(p.Addr(), &Message{Type: MsgProbe, From: 99}, time.Second); err != nil {
		t.Fatalf("rejoined peer refused a probe: %v", err)
	}
	// Rejoin on a healthy peer is a no-op.
	p.Rejoin()
}

// TestTrackerOutageAndBrownout exercises SetDown against a live tracker:
// a dark tracker answers nothing, a recovered one serves again.
func TestTrackerOutageAndBrownout(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())

	req := &Message{Type: MsgTopList, From: 1}
	if _, err := rpc(tk.Addr(), req, time.Second); err != nil {
		t.Fatalf("healthy tracker refused a request: %v", err)
	}
	tk.SetDown(true)
	if _, err := rpc(tk.Addr(), req, 200*time.Millisecond); err == nil {
		t.Fatal("down tracker answered a request")
	}
	tk.SetDown(false)
	if _, err := rpc(tk.Addr(), req, time.Second); err != nil {
		t.Fatalf("recovered tracker refused a request: %v", err)
	}
}

// TestConditionsBurst pins the burst window: latency scales by the
// factor, loss rises to the burst probability, and closing the window
// restores the baseline.
func TestConditionsBurst(t *testing.T) {
	c := fastConditions()
	base := c.Latency(1, 2)
	if base <= 0 {
		t.Fatal("baseline latency is zero; the test is vacuous")
	}
	burst := func(factor, lossP float64) {
		c.Apply(faults.Event{Kind: faults.KindBurstStart, LatencyFactor: factor, LossP: lossP})
	}
	end := func() { c.Apply(faults.Event{Kind: faults.KindBurstEnd}) }
	burst(3, 0)
	if got := c.Latency(1, 2); got < 2*base {
		t.Fatalf("burst latency %v did not scale from %v", got, base)
	}
	end()
	burst(0.5, 1) // a recovery window halves latency
	if got, want := c.Latency(1, 2), time.Duration(float64(base)*0.5); got != want {
		t.Fatalf("boost window latency %v, want %v", got, want)
	}
	if !c.Drop() {
		t.Fatal("lossP=1 burst did not drop")
	}
	end()
	if c.Drop() {
		t.Fatal("cleared burst still dropping with LossP=0")
	}
	if got := c.Latency(1, 2); got != base {
		t.Fatalf("cleared burst changed latency: %v != %v", got, base)
	}
	burst(-2, 0) // a non-positive factor leaves latency alone
	if got := c.Latency(1, 2); got != base {
		t.Fatalf("negative factor changed latency: %v != %v", got, base)
	}
	// Burst loss adds to the baseline as an independent loss:
	// 1-(1-0.2)(1-0.5) = 0.6, not max(0.2, 0.5).
	c.LossP = 0.2
	end()
	burst(1, 0.5)
	const draws = 20_000
	dropped := 0
	for range draws {
		if c.Drop() {
			dropped++
		}
	}
	if got := float64(dropped) / draws; math.Abs(got-0.6) > 0.02 {
		t.Fatalf("LossP 0.2 under a 0.5 burst dropped %.3f, want 0.6 ± 0.02", got)
	}
}
