package figures

import (
	"context"
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
)

// EmuTrace generates the PlanetLab-style trace of §V: 6 categories of 10
// channels with 40 videos each (2,400 videos), one user per peer of the
// cluster template c, seeded by its seed.
func EmuTrace(c emu.ClusterConfig) (*trace.Trace, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.Categories = 6
	cfg.Channels = 60
	cfg.Users = c.Peers
	cfg.MaxVideosPerChannel = 40
	cfg.MaxInterestsPerUser = 6
	return trace.Generate(cfg)
}

// runMode runs one cluster of the template base in the given mode, with
// mutate (when non-nil) editing the configuration first.
func runMode(base emu.ClusterConfig, tr *trace.Trace, mode emu.Mode, mutate func(*emu.ClusterConfig)) (*emu.ClusterResult, error) {
	cfg := base
	cfg.Peer.Mode = mode
	// PA-VoD's ISP-localized assistance, as in the simulator baseline:
	// one ISP per ≈50 emulated peers once the cluster is big enough.
	if cfg.Peers >= 100 {
		cfg.Tracker.ISPs = cfg.Peers / 50
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := emu.RunClusterCtx(context.Background(), cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("emulate %s: %w", mode, err)
	}
	return res, nil
}

// outageUnit derives the emu fault plan's time base from the workload:
// one session of playback and as much off-time (emu.NewClusterConfig
// sets MeanOffTime equal to WatchTime), floored so the outage window stays wide enough to matter
// against real socket timing.
func outageUnit(c emu.ClusterConfig) time.Duration {
	u := time.Duration(c.VideosPerSession) * 2 * c.WatchTime
	if u < 100*time.Millisecond {
		u = 100 * time.Millisecond
	}
	return u
}

// tightRetry is the outage figures' retry policy: a request's budget is
// on the order of the outage window, so what survives did so via the
// local cache, peer links formed before the outage, failover or takeover —
// not patience.
func tightRetry(c *emu.ClusterConfig) {
	c.Peer.RPCTimeout = 250 * time.Millisecond
	c.Peer.MaxRetries = 1
	c.Peer.RetryBackoff = 25 * time.Millisecond
}

// FigOutage measures service continuity through the standard OutagePlan
// (a 20% crash wave, then the tracker dark for one unit) over the TCP
// emulation, under the tight retry policy.
func FigOutage(base emu.ClusterConfig, tr *trace.Trace) (*Report, error) {
	unit := outageUnit(base)
	t := NewTable(
		fmt.Sprintf("Tracker outage resilience under OutagePlan(unit=%s) (TCP emulation)", unit),
		"protocol", "outageReqs", "outageServed", "failed", "crashes", "rejoins", "serverHits")
	for _, name := range protoOrder {
		res, err := runMode(base, tr, emuModes[name], func(c *emu.ClusterConfig) {
			c.Faults = faults.OutagePlan(base.Seed, unit)
			tightRetry(c)
		})
		if err != nil {
			return nil, err
		}
		served := 0.0
		if res.OutageRequests > 0 {
			served = float64(res.OutageServed) / float64(res.OutageRequests)
		}
		t.AddRow(res.Protocol, res.OutageRequests, served, res.FailedRequests,
			res.Crashes, res.Rejoins, res.ServerHits.Value())
	}
	return &Report{Tables: []*Table{t}}, nil
}
