package figures

import (
	"context"
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// EmuScale sizes the TCP emulation (the PlanetLab substitute).
type EmuScale struct {
	// Peers is the number of TCP nodes (paper: 250 PlanetLab hosts).
	Peers int
	// Sessions per peer (paper: 50).
	Sessions int
	// VideosPerSession per session (paper: 10).
	VideosPerSession int
	// WatchTime is the emulated playback per video.
	WatchTime time.Duration
	// Seed drives the workload, the trackers and the link conditions.
	Seed int64
	// MetricsAddr, when non-empty, serves live cluster metrics on
	// GET <addr>/metrics while each emulated run is in flight (append
	// ?format=prom for Prometheus exposition).
	MetricsAddr string
	// Pprof mounts net/http/pprof on the metrics listener.
	Pprof bool
	// Tracer, when non-nil, receives every emulated run's event stream
	// (the -trace-out path). It must be safe for concurrent Emit: peer
	// session loops emit in parallel.
	Tracer obs.Tracer
}

// EmuTrace generates the PlanetLab-style trace of §V: 6 categories of 10
// channels with 40 videos each (2,400 videos), scaled to the peer count.
func (s EmuScale) EmuTrace() (*trace.Trace, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Categories = 6
	cfg.Channels = 60
	cfg.Users = s.Peers
	cfg.MaxVideosPerChannel = 40
	cfg.MaxInterestsPerUser = 6
	return trace.Generate(cfg)
}

// runMode runs one cluster of the scale's size in the given mode, with
// mutate (when non-nil) editing the configuration first.
func (s EmuScale) runMode(tr *trace.Trace, mode emu.Mode, mutate func(*emu.ClusterConfig)) (*emu.ClusterResult, error) {
	cfg := emu.DefaultClusterConfig(mode)
	cfg.Peers = s.Peers
	cfg.Sessions = s.Sessions
	cfg.VideosPerSession = s.VideosPerSession
	cfg.WatchTime = s.WatchTime
	cfg.MeanOffTime = s.WatchTime
	// One seed for the whole run: workload, tracker recommendations, and
	// link latency and loss.
	cfg.Seed, cfg.Tracker.Seed, cfg.Conditions.Seed = s.Seed, s.Seed, s.Seed
	// PA-VoD's ISP-localized assistance, as in the simulator baseline:
	// one ISP per ≈50 emulated peers once the cluster is big enough.
	if s.Peers >= 100 {
		cfg.Tracker.ISPs = s.Peers / 50
	}
	cfg.MetricsAddr = s.MetricsAddr
	cfg.PprofEnabled = s.Pprof
	cfg.Tracer = s.Tracer
	if s.MetricsAddr != "" {
		cfg.OnMetricsAddr = func(addr string) {
			fmt.Printf("# live metrics: http://%s/metrics\n", addr)
		}
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
// one session of playback (the cluster sets MeanOffTime equal to
// WatchTime), floored so the outage window stays wide enough to matter
// against real socket timing.
func (s EmuScale) outageUnit() time.Duration {
	u := time.Duration(s.VideosPerSession) * 2 * s.WatchTime
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
func FigOutage(s EmuScale, tr *trace.Trace) (*Report, error) {
	unit := s.outageUnit()
	t := NewTable(
		fmt.Sprintf("Tracker outage resilience under OutagePlan(unit=%s) (TCP emulation)", unit),
		"protocol", "outageReqs", "outageServed", "failed", "crashes", "rejoins", "serverHits")
	for _, name := range protoOrder {
		res, err := s.runMode(tr, emuModes[name], func(c *emu.ClusterConfig) {
			c.Faults = faults.OutagePlan(s.Seed, unit)
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
