package figures

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
)

// TimelinePoint is one (protocol, window) cell of the timeline figure.
// Every field is deterministic under a fixed seed — windows are keyed by
// simulated time, so the same seed yields byte-identical points for any
// engine layout — which is why the struct carries no environmental block.
type TimelinePoint struct {
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	// WindowMs is the window width; StartMs the window's start offset —
	// both in simulated milliseconds.
	WindowMs int64 `json:"windowMs"`
	StartMs  int64 `json:"startMs"`
	// Requests issued in the window and the fraction the server never
	// served (cache, prefix or peer delivery).
	Requests int64   `json:"requests"`
	HitRate  float64 `json:"hitRate"`
	// P50Ms / P99Ms summarize the window's startup-delay histogram
	// (0 when the window saw no non-cache request).
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`
	// ServerBytes is the server load filed into the window.
	ServerBytes int64 `json:"serverBytes"`
	// BreakerOpens counts circuit-breaker opens filed into the window.
	BreakerOpens int64 `json:"breakerOpens"`
}

// timelinePoints reduces one run's Timeline to its figure cells, one per
// window in ascending window order.
func timelinePoints(protocol string, seed int64, tl *exp.Timeline) []TimelinePoint {
	if tl == nil {
		return nil
	}
	windowMs := tl.Width.Milliseconds()
	pts := make([]TimelinePoint, 0, len(tl.Windows))
	for i, w := range tl.Windows {
		p := TimelinePoint{
			Protocol:     protocol,
			Seed:         seed,
			WindowMs:     windowMs,
			StartMs:      int64(i) * windowMs,
			Requests:     w.Requests,
			ServerBytes:  w.ServerBytes,
			BreakerOpens: w.BreakerOpens,
		}
		if p.Requests > 0 {
			p.HitRate = float64(w.CacheHits+w.PeerHits) / float64(p.Requests)
		}
		if w.StartupMs.Len() > 0 {
			p.P50Ms = w.StartupMs.Percentile(50)
			p.P99Ms = w.StartupMs.Percentile(99)
		}
		pts = append(pts, p)
	}
	return pts
}

// RunTimeline runs the three protocols through the standard workload under
// the standard ChurnPlan with the per-window telemetry recorder on, and
// renders hit rate, startup-delay percentiles, server load and breaker
// opens per simulated-time window — the degradation-and-recovery arc of
// the churn figure resolved in time instead of collapsed into run totals.
func RunTimeline(s Scale, tr *trace.Trace) (*Report, error) {
	// One window per session cycle (playback plus mean off period): each
	// covers roughly one generation of sessions, and the churn plan's
	// crash wave, outage and burst land in distinct windows.
	unit := s.churnUnit()
	jobs := protocolJobs(protoOrder)
	for i := range jobs {
		jobs[i].opts = exp.Options{Faults: faults.ChurnPlan(s.Seed, unit), TimelineWindow: unit}
	}
	results, err := s.runJobs(tr, 0, jobs, nil)
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("Telemetry timeline under ChurnPlan(unit=%[1]s), window=%[1]s (simulator)", unit),
		"protocol", "window", "startMs", "requests", "hitRate", "p50Ms", "p99Ms", "serverMB", "brkOpens")
	var points []TimelinePoint
	for i, name := range protoOrder {
		pts := timelinePoints(name, s.Seed, results[i].Timeline)
		for w, p := range pts {
			t.AddRow(name, w, p.StartMs, p.Requests, p.HitRate, p.P50Ms, p.P99Ms,
				float64(p.ServerBytes)/1e6, p.BreakerOpens)
		}
		points = append(points, pts...)
	}
	return report(points, t, countersTable("Telemetry timeline — protocol counters", protoOrder, results)), nil
}
