package figures

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
)

// churnUnit derives the fault plan's time base from the workload: one
// session cycle, i.e. a session's playback under time compression (the
// generated catalog has a ≈4-minute median video) plus the mean off
// period. ChurnPlan's wave, outage and burst then all land while nodes
// are still active regardless of scale.
func (s Scale) churnUnit() time.Duration {
	cfg := s.expConfig()
	watch := time.Duration(float64(s.VideosPerSession) * float64(4*time.Minute) * cfg.WatchScale)
	return watch + cfg.MeanOffTime
}

// peerHitRate is the fraction of requests the server never served
// (cache, prefix or peer delivery).
func peerHitRate(r *exp.Result) float64 {
	if r.Requests == 0 {
		return 0
	}
	return 1 - float64(r.ServerHits.Value())/float64(r.Requests)
}

// FigChurn compares churn resilience across the three protocols on the
// simulator: each protocol runs the standard workload twice — healthy,
// then under the standard ChurnPlan (a 30% crash wave, a tracker outage
// and a lossy latency burst) — and the table reports how far the peer
// hit rate degrades, how fast SocialTube's active repair reattaches
// neighbors, and the orphan fraction left behind after each crash.
// Baselines recover through probing alone, which is exactly the
// asymmetry the paper's §IV-C maintenance argument predicts.
func FigChurn(s Scale, tr *trace.Trace) (*Report, error) {
	unit := s.churnUnit()
	n := len(protoOrder)
	jobs := append(protocolJobs(protoOrder), protocolJobs(protoOrder)...) // [0,n): healthy, [n,2n): faulted
	for i := n; i < 2*n; i++ {
		jobs[i].opts.Faults = faults.ChurnPlan(s.Seed, unit)
	}
	results, err := s.runJobs(tr, 0, jobs, nil)
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("Churn resilience under ChurnPlan(unit=%s) (simulator)", unit),
		"protocol", "healthyHit", "faultHit", "degradation", "repairMs", "orphanFrac", "crashes", "rejoins")
	for i, name := range protoOrder {
		hh := peerHitRate(results[i])
		rz := &results[n+i].Resilience
		fh := rz.HitRateUnderFaults()
		t.AddRow(name, hh, fh, hh-fh,
			rz.RepairLatencyMs.Mean(), rz.OrphanFraction.Mean(), rz.Crashes, rz.Rejoins)
	}
	return &Report{Tables: []*Table{
		t, countersTable("Churn resilience — protocol counters (faulted runs)", protoOrder, results[n:]),
	}}, nil
}
