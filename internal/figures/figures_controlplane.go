package figures

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/trace"
)

// ControlPlaneEnv carries a control-plane fault point's environmental
// measurements: wall time, time-to-takeover and every counter decided by
// real-socket races (which replica answers first, when a breaker trips,
// when a survivor's gossip round declares a shard, which requests land
// before or after the declaration). They ride along in the bench file but
// stay out of determinism comparisons — only the request total and the
// failure count are schedule-determined.
type ControlPlaneEnv struct {
	WallMs float64 `json:"wallMs"`
	// TakeoverMs is the delay between a whole-shard outage beginning and
	// the first surviving replica declaring it dead (0 on variants without
	// a whole-shard outage).
	TakeoverMs float64 `json:"takeoverMs"`
	PeerHits   int64   `json:"peerHits"`
	ServerHits int64   `json:"serverHits"`
	CacheHits  int64   `json:"cacheHits"`
	// Failure-detection and re-registration traffic.
	DeclaredDead uint64 `json:"declaredDead"`
	Revived      uint64 `json:"revived"`
	Reroutes     uint64 `json:"reroutes"`
	Rejoins      uint64 `json:"rejoins"`
	HintsQueued  uint64 `json:"hintsQueued"`
	HintsReplay  uint64 `json:"hintsReplayed"`
	BreakerOpens uint64 `json:"breakerOpens"`
	BreakerSkips uint64 `json:"breakerSkips"`
	RPCFailures  uint64 `json:"rpcFailures"`
}

// ControlPlanePoint is one cell of a control-plane fault figure:
// SocialTube on a sharded, replicated control plane under one fault
// variant. HitRate is the fraction of requests that were served at all
// (1 - failed/requests); the figures' headline is that it stays flat
// across every variant.
type ControlPlanePoint struct {
	// Variant is "baseline", "shardS-replicaR-down", "shardS-dead" or
	// "partition-Gway".
	Variant  string `json:"variant"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	// The variant's fault target, each 1-based and 0 (omitted) when not
	// in play: the one darkened replica, the killed whole shard, the
	// partition's side count.
	DownShard   int `json:"downShard,omitempty"`
	DownReplica int `json:"downReplica,omitempty"`
	DeadShard   int `json:"deadShard,omitempty"`
	Groups      int `json:"groups,omitempty"`
	// Deterministic outcomes: the run is closed-loop, so the request
	// total is fixed by the workload and the failure count by the fault
	// schedule plus failover and takeover.
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	HitRate  float64 `json:"hitRate"`

	Env ControlPlaneEnv `json:"env"`
}

// planeVariant is one run of a control-plane fault figure: the fault plan
// (nil on the baseline) and the point's variant name and target fields.
type planeVariant struct {
	plan   *faults.Plan
	target ControlPlanePoint
}

// planeFaults runs SocialTube once per variant on the cp plane under the
// tight retry policy and renders the shared columns plus the figure's
// own. The plans inject no churn, so request totals are deterministic and
// hit rates compare directly against variants[0], the no-fault baseline.
func planeFaults(base emu.ClusterConfig, tr *trace.Trace, cp emu.ControlPlaneConfig, title string,
	variants []planeVariant, headers []string, extra func(ControlPlanePoint) []any) (*Report, error) {
	t := NewTable(title,
		append([]string{"variant", "requests", "failed", "hitRate", "deltaVsBaseline"}, headers...)...)
	points := make([]ControlPlanePoint, 0, len(variants))
	for _, v := range variants {
		res, err := runMode(base, tr, emu.ModeSocialTube, func(c *emu.ClusterConfig) {
			c.ControlPlane = cp
			c.Faults = v.plan
			tightRetry(c)
		})
		if err != nil {
			return nil, err
		}
		p := v.target
		p.Protocol = res.Protocol
		p.Seed = base.Seed
		p.Shards, p.Replicas = cp.Shards, cp.Replicas
		p.Requests = res.Delivered()
		p.Failed = res.FailedRequests
		p.HitRate = 1
		if p.Requests > 0 {
			p.HitRate = 1 - float64(p.Failed)/float64(p.Requests)
		}
		p.Env = ControlPlaneEnv{
			WallMs:       float64(res.Elapsed.Nanoseconds()) / 1e6,
			TakeoverMs:   res.TakeoverMs,
			PeerHits:     res.PeerHits.Value(),
			ServerHits:   res.ServerHits.Value(),
			CacheHits:    res.CacheHits.Value(),
			DeclaredDead: res.Obs.ShardsDeclaredDead,
			Revived:      res.Obs.ShardsRevived,
			Reroutes:     res.Obs.TakeoverReroutes,
			Rejoins:      res.Obs.TakeoverRejoins,
			HintsQueued:  res.Obs.HintsQueued,
			HintsReplay:  res.Obs.HintsReplayed,
			BreakerOpens: res.Obs.BreakerOpens,
			BreakerSkips: res.Obs.BreakerSkips,
			RPCFailures:  res.Obs.RPCFailures,
		}
		points = append(points, p)
		t.AddRow(append([]any{p.Variant, p.Requests, p.Failed, p.HitRate, p.HitRate - points[0].HitRate},
			extra(p)...)...)
	}
	return report(points, t), nil
}

// FigShardedOutage measures SocialTube's service continuity on a sharded,
// replicated control plane (default 2 shards x 2 replicas) when a single
// tracker replica goes dark mid-run: one no-fault baseline, then one run
// per replica with exactly that replica down for two workload units. With
// peers failing over to the shard's surviving replica, every
// down-one-replica hit rate should sit within a few percent of the
// baseline — the headline of the control-plane redesign, versus the
// whole-plane outage of FigOutage where the dark window visibly costs
// requests.
func FigShardedOutage(base emu.ClusterConfig, tr *trace.Trace) (*Report, error) {
	cp := emu.DefaultControlPlaneConfig()
	cp.RingSeed = base.Seed
	unit := outageUnit(base)
	variants := []planeVariant{{target: ControlPlanePoint{Variant: "baseline"}}}
	for shard := 1; shard <= cp.Shards; shard++ {
		for replica := 1; replica <= cp.Replicas; replica++ {
			variants = append(variants, planeVariant{
				plan: faults.ReplicaOutagePlan(base.Seed, unit, shard, replica),
				target: ControlPlanePoint{
					Variant:   fmt.Sprintf("shard%d-replica%d-down", shard, replica),
					DownShard: shard, DownReplica: replica,
				},
			})
		}
	}
	return planeFaults(base, tr, cp,
		fmt.Sprintf("SocialTube hit rate, %dx%d control plane, one replica dark for 2x%s (TCP emulation)",
			cp.Shards, cp.Replicas, unit),
		variants, []string{"brkOpens"},
		func(p ControlPlanePoint) []any { return []any{p.Env.BreakerOpens} })
}

// FigTakeover measures the partition-tolerant control plane end to end
// (default 2 shards x 2 replicas): one no-fault baseline, one run with a
// WHOLE shard (both replicas) dead for two workload units — recovery
// must come from gossip liveness declaring the shard dead and the
// survivors adopting its channels — and one run with a 2-way partition
// for two units, where both sides keep serving and hinted handoff plus
// the LWW merge re-converge the tables on heal with zero lost rows.
func FigTakeover(base emu.ClusterConfig, tr *trace.Trace) (*Report, error) {
	cp := emu.DefaultControlPlaneConfig()
	cp.RingSeed = base.Seed
	unit := outageUnit(base)
	// Suspicion timing scaled to the workload unit: gossip every unit/16
	// with sync exchanges bounded by unit/8, so three suspicion rounds
	// declare a dead shard well inside its two-unit outage even when
	// every round stalls on a dark partner.
	cp.GossipInterval = unit / 16
	cp.GossipTimeout = unit / 8
	cp.SuspicionRounds = 3
	variants := []planeVariant{
		{target: ControlPlanePoint{Variant: "baseline"}},
		{faults.ShardOutagePlan(base.Seed, unit, 1), ControlPlanePoint{Variant: "shard1-dead", DeadShard: 1}},
		{faults.PartitionPlan(base.Seed, unit, 2), ControlPlanePoint{Variant: "partition-2way", Groups: 2}},
	}
	return planeFaults(base, tr, cp,
		fmt.Sprintf("SocialTube hit rate, %dx%d control plane, whole-shard death and split brain for 2x%s (TCP emulation)",
			cp.Shards, cp.Replicas, unit),
		variants, []string{"takeoverMs", "reroutes", "rejoins"},
		func(p ControlPlanePoint) []any { return []any{p.Env.TakeoverMs, p.Env.Reroutes, p.Env.Rejoins} })
}
