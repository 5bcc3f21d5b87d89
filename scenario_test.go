package socialtube_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	socialtube "github.com/socialtube/socialtube"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/simnet"
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

// TestScenarioDefaultsToDefaultNetwork pins what the facade passes
// through: a run on DefaultNetworkConfig with zero options is
// bit-identical to the internal driver's plain Run.
func TestScenarioDefaultsToDefaultNetwork(t *testing.T) {
	tr := smallTrace(t)
	run := func(drive func(socialtube.Protocol) (*socialtube.ExperimentResult, error)) []byte {
		t.Helper()
		sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := drive(sys)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	facade := run(func(p socialtube.Protocol) (*socialtube.ExperimentResult, error) {
		return socialtube.RunExperimentCtx(context.Background(), quickExperimentConfig(), tr, p,
			socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
	})
	direct := run(func(p socialtube.Protocol) (*socialtube.ExperimentResult, error) {
		return exp.Run(quickExperimentConfig(), tr, p, simnet.DefaultConfig())
	})
	if string(facade) != string(direct) {
		t.Fatal("RunExperimentCtx on the default network diverged from exp.Run")
	}
}

// TestScenarioOptionsCompose runs one simulation with a fault plan and a
// tracer attached at once, and reads the counters off the result.
func TestScenarioOptionsCompose(t *testing.T) {
	tr := smallTrace(t)
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	tracer := &collectingTracer{}
	sys.SetTracer(tracer)
	res, err := socialtube.RunExperimentCtx(context.Background(), quickExperimentConfig(), tr, sys,
		socialtube.DefaultNetworkConfig(),
		socialtube.ExperimentOptions{Faults: socialtube.ChurnPlan(1, 4*time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.Crashes == 0 {
		t.Fatal("fault plan applied no crashes through the facade")
	}
	if res.Obs.RepairCalls == 0 {
		t.Fatal("churned SocialTube run recorded no repair calls")
	}
	if tracer.count() == 0 {
		t.Fatal("the tracer received no events")
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
	_, err = socialtube.RunExperimentCtx(ctx, quickExperimentConfig(), tr, sys,
		socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sim: want context.Canceled, got %v", err)
	}
	cfg := socialtube.DefaultClusterConfig(socialtube.ModeSocialTube)
	cfg.Peers = 4
	if _, err := socialtube.RunClusterCtx(ctx, cfg, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("emu: want context.Canceled, got %v", err)
	}
}

// TestScenarioClusterFaults drives the emulated cluster through the
// facade with an outage plan set on its ClusterConfig.
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
	cfg.Faults = &socialtube.FaultPlan{
		Seed:    5,
		Outages: []socialtube.Outage{{At: 0, Duration: 150 * time.Millisecond}},
	}
	res, err := socialtube.RunClusterCtx(context.Background(), cfg, tr)
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
