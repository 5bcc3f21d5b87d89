package emu

import (
	"context"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
)

// TestConditionsReadTheWindow: Conditions' latency, drop probability,
// partition cut and chaos pick read the faults.Window the simulator folds.
// A plan with every window kind, overlapping outages and two touching
// bursts is applied event by event to Conditions and to a bare Window;
// after each event the two must agree.
func TestConditionsReadTheWindow(t *testing.T) {
	plan := &faults.Plan{
		Seed: 4,
		Bursts: []faults.LinkBurst{
			{At: 3 * time.Second, Duration: time.Second, LatencyFactor: 0.5, LossP: 0.1},
			{Duration: 3 * time.Second, LatencyFactor: 2.5, LossP: 0.3},
		},
		Outages: []faults.Outage{
			{At: time.Second, Duration: 5 * time.Second},
			{At: 2 * time.Second, Duration: time.Second, Shard: 1},
		},
		Chaos: []faults.ChaosBurst{{At: 2 * time.Second, Duration: 2 * time.Second,
			CorruptP: 0.2, TruncateP: 0.1, DuplicateP: 0.3, StallP: 0.1, StallFor: time.Millisecond}},
		Partitions: []faults.Partition{{At: time.Second, Duration: 2 * time.Second, Groups: 3}},
	}
	sched, err := plan.Compile(8)
	if err != nil {
		t.Fatal(err)
	}
	healthy := Conditions{Seed: 9, MinLatency: time.Millisecond, MaxLatency: 20 * time.Millisecond, LossP: 0.05}
	c := &Conditions{Seed: healthy.Seed, MinLatency: healthy.MinLatency, MaxLatency: healthy.MaxLatency, LossP: healthy.LossP}
	var w faults.Window
	for i, ev := range sched.Events {
		c.Apply(ev)
		w.Apply(ev)
		for a := -1; a < 6; a++ {
			for b := -1; b < 6; b++ {
				if got, want := c.Latency(a, b), w.ScaleLatency(healthy.Latency(a, b)); got != want {
					t.Fatalf("event %d (%v): latency %d→%d = %v, want %v", i, ev.Kind, a, b, got, want)
				}
				if got, want := c.Severed(a, b), w.Severed(a, b); got != want {
					t.Fatalf("event %d (%v): severed %d→%d = %v, want %v", i, ev.Kind, a, b, got, want)
				}
			}
		}
		if got, want := c.dropP(), w.Loss(c.LossP); got != want {
			t.Fatalf("event %d (%v): drop probability %v, want %v", i, ev.Kind, got, want)
		}
		mix, open := w.Chaos()
		for range 50 {
			n := c.chaosCounter.Load()
			act, stall := c.nextChaos()
			wantAct, wantStall := chaosNone, time.Duration(0)
			if open {
				n++
				wantAct, wantStall = chaosPick(mix, dist.PairUniform(c.Seed, chaosStream, int64(n)))
			}
			if act != wantAct || stall != wantStall || c.chaosCounter.Load() != n {
				t.Fatalf("event %d (%v): chaos pick %v/%v at draw %d, want %v/%v", i, ev.Kind, act, stall, n, wantAct, wantStall)
			}
		}
	}
	if w.Open() {
		t.Fatal("windows still open after the whole schedule")
	}
}

// TestNilConditionsRunPlanWindows: a cluster given no Conditions still
// suffers its plan's windows, folded into zero-valued ones. Under a
// whole-run LossP 1 burst every RPC is lost, so every request the local
// cache cannot serve fails.
func TestNilConditionsRunPlanWindows(t *testing.T) {
	tr := emuTrace(t)
	cfg := fastClusterConfig(ModeSocialTube)
	cfg.Peers = 6
	cfg.Conditions = nil
	cfg.Peer.RPCTimeout = 30 * time.Millisecond
	cfg.Peer.MaxRetries = 1
	cfg.Faults = &faults.Plan{Seed: 1, Bursts: []faults.LinkBurst{{Duration: time.Hour, LossP: 1}}}
	res, err := RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	networked := res.Delivered() - res.CacheHits.Value()
	if networked == 0 || res.FailedRequests != networked {
		t.Fatalf("%d of %d networked requests failed under a LossP 1 burst, want all",
			res.FailedRequests, networked)
	}
}
