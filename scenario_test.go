package socialtube_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	socialtube "github.com/socialtube/socialtube"
)

func quickExperimentConfig() socialtube.ExperimentConfig {
	cfg := socialtube.DefaultExperimentConfig()
	cfg.Sessions = 2
	cfg.VideosPerSession = 5
	cfg.WatchScale = 0.05
	cfg.MeanOffTime = 60 * time.Second
	cfg.Horizon = 6 * time.Hour
	return cfg
}

// TestScenarioDefaultsToDefaultNetwork pins what a run without
// WithNetwork means: the result is bit-identical to one that passes
// DefaultNetworkConfig explicitly.
func TestScenarioDefaultsToDefaultNetwork(t *testing.T) {
	tr := smallTrace(t)
	run := func(opts ...socialtube.RunOption) []byte {
		t.Helper()
		sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := socialtube.RunExperimentCtx(context.Background(), quickExperimentConfig(), tr, sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	explicit := run(socialtube.WithNetwork(socialtube.DefaultNetworkConfig()))
	if implicit := run(); string(implicit) != string(explicit) {
		t.Fatal("RunExperimentCtx without WithNetwork diverged from the default network")
	}
}

// TestScenarioOptionsCompose runs one simulation with faults, a tracer
// and a counter sink attached at once.
func TestScenarioOptionsCompose(t *testing.T) {
	tr := smallTrace(t)
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	var ctr socialtube.Counters
	tracer := &collectingTracer{}
	res, err := socialtube.RunExperimentCtx(context.Background(), quickExperimentConfig(), tr, sys,
		socialtube.WithNetwork(socialtube.DefaultNetworkConfig()),
		socialtube.WithFaults(socialtube.ChurnPlan(1, 4*time.Minute)),
		socialtube.WithTracer(tracer),
		socialtube.WithCounters(&ctr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.Crashes == 0 {
		t.Fatal("fault plan applied no crashes through the Scenario API")
	}
	if ctr != res.Obs {
		t.Fatal("WithCounters sink differs from the result snapshot")
	}
	if ctr.RepairCalls == 0 {
		t.Fatal("churned SocialTube run recorded no repair calls")
	}
	if tracer.count() == 0 {
		t.Fatal("WithTracer received no events")
	}
}

func TestScenarioContextCancellation(t *testing.T) {
	tr := smallTrace(t)
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := socialtube.RunExperimentCtx(ctx, quickExperimentConfig(), tr, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("sim: want context.Canceled, got %v", err)
	}
	cfg := socialtube.DefaultClusterConfig(socialtube.ModeSocialTube)
	cfg.Peers = 4
	if _, err := socialtube.RunClusterCtx(ctx, cfg, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("emu: want context.Canceled, got %v", err)
	}
}

// TestScenarioClusterFaults drives the emulated cluster through the
// Scenario API with an outage plan and a counter sink.
func TestScenarioClusterFaults(t *testing.T) {
	tr := smallTrace(t)
	cfg := socialtube.DefaultClusterConfig(socialtube.ModeSocialTube)
	cfg.Peers = 6
	cfg.Sessions = 1
	cfg.VideosPerSession = 3
	cfg.WatchTime = 5 * time.Millisecond
	cfg.Peer.RPCTimeout = 30 * time.Millisecond
	cfg.Peer.MaxRetries = 1
	cfg.Peer.RetryBackoff = 2 * time.Millisecond
	var ctr socialtube.Counters
	res, err := socialtube.RunClusterCtx(context.Background(), cfg, tr,
		socialtube.WithFaults(&socialtube.FaultPlan{
			Seed:    5,
			Outages: []socialtube.Outage{{At: 0, Duration: 150 * time.Millisecond}},
		}),
		socialtube.WithCounters(&ctr))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutageRequests == 0 {
		t.Fatal("no requests overlapped the outage")
	}
	want := int64(cfg.Peers * cfg.Sessions * cfg.VideosPerSession)
	if got := res.Delivered(); got != want {
		t.Fatalf("requests lost during outage: %d of %d", got, want)
	}
	if ctr != res.Obs {
		t.Fatal("WithCounters sink differs from the cluster snapshot")
	}
}

// collectingTracer counts events; it lives behind a mutex because sim
// runs emit from a single goroutine but the contract doesn't promise it.
type collectingTracer struct {
	mu sync.Mutex
	n  int
}

func (c *collectingTracer) Emit(socialtube.TraceEvent) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *collectingTracer) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
