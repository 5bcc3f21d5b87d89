package figures

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/trace"
)

// FailoverEnv carries a point's environmental measurements — wall clock
// and the measured handoff stall. They ride along in BENCH_failover.json
// but never enter determinism comparisons: handoff latency is real
// socket timing, different on every host.
type FailoverEnv struct {
	WallMs            float64 `json:"wallMs"`
	MeanHandoffWaitMs float64 `json:"meanHandoffWaitMs"`
}

// FailoverPoint is one protocol's cell of the failover figure. Every
// field except Env is deterministic under a fixed seed.
type FailoverPoint struct {
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	// Schedule parameters.
	Providers       int `json:"providers"`
	CachersPerVideo int `json:"cachersPerVideo"`
	Requests        int `json:"requests"`
	CrashEvery      int `json:"crashEvery"`
	// Outcomes of crashed requests.
	Crashed        int     `json:"crashed"`
	PeerCompleted  int     `json:"peerCompleted"`
	ServerRescues  int     `json:"serverRescues"`
	ServerRestarts int     `json:"serverRestarts"`
	NoRestartFrac  float64 `json:"noRestartFrac"`
	// Failover mechanics.
	HandoffAttempts int    `json:"handoffAttempts"`
	Handoffs        int    `json:"handoffs"`
	Messages        int    `json:"messages"`
	BreakerOpens    uint64 `json:"breakerOpens"`
	BreakerSkips    uint64 `json:"breakerSkips"`
	RPCFailures     uint64 `json:"rpcFailures"`

	Env FailoverEnv `json:"env"`
}

// Canonical returns the point with its environmental block zeroed — the
// form determinism comparisons use.
func (p FailoverPoint) Canonical() FailoverPoint {
	p.Env = FailoverEnv{}
	return p
}

// failoverPoint reduces one run to its figure cell.
func failoverPoint(cfg emu.FailoverConfig, res *emu.FailoverResult) FailoverPoint {
	return FailoverPoint{
		Protocol:        res.Protocol,
		Seed:            cfg.Seed,
		Providers:       cfg.Providers,
		CachersPerVideo: cfg.CachersPerVideo,
		Requests:        cfg.Requests,
		CrashEvery:      cfg.CrashEvery,
		Crashed:         res.Crashed,
		PeerCompleted:   res.PeerCompleted,
		ServerRescues:   res.ServerRescues,
		ServerRestarts:  res.ServerRestarts,
		NoRestartFrac:   res.NoRestartFraction(),
		HandoffAttempts: res.HandoffAttempts,
		Handoffs:        res.Handoffs,
		Messages:        res.Messages,
		BreakerOpens:    res.Obs.BreakerOpens,
		BreakerSkips:    res.Obs.BreakerSkips,
		RPCFailures:     res.Obs.RPCFailures,
		Env: FailoverEnv{
			WallMs:            float64(res.Elapsed.Nanoseconds()) / 1e6,
			MeanHandoffWaitMs: res.HandoffWaitMs.Mean(),
		},
	}
}

// FigFailover measures delivery resilience under a seeded mid-stream
// provider-crash schedule: on every second request the provider serving
// chunk 0 is crashed the moment the chunk lands, and the table reports
// how often each protocol still finished without restarting delivery at
// the server. Replica placement is identical across protocols; what
// differs is discovery. SocialTube's channel overlay floods only peers
// that answer right now, so its candidate lists are live by
// construction; NetTube mixes live links with the tracker's stale
// per-video member lists; PA-VoD depends entirely on the tracker's
// watcher lists, which crashed watchers never leave.
func FigFailover(s EmuScale, tr *trace.Trace) (*Report, error) {
	t := NewTable(
		"Failover resilience under mid-stream provider crashes (TCP emulation)",
		"protocol", "crashed", "noRestart", "peerDone", "rescues", "restarts", "handoffs", "waitMs", "brkSkips")
	points := make([]FailoverPoint, 0, 3)
	for _, name := range protoOrder {
		cfg := emu.DefaultFailoverConfig(emuModes[name])
		cfg.Seed = s.Seed
		res, err := emu.RunFailover(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("failover %s: %w", name, err)
		}
		t.AddRow(res.Protocol, res.Crashed, res.NoRestartFraction(), res.PeerCompleted,
			res.ServerRescues, res.ServerRestarts, res.Handoffs,
			res.HandoffWaitMs.Mean(), res.Obs.BreakerSkips)
		points = append(points, failoverPoint(cfg, res))
	}
	return report(points, t), nil
}
