package exp

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/vod"
)

// Options carries a run's cross-cutting concerns on the identity partition
// (RunCtx); the category partition takes none (ShardedOptions). The zero
// value is a plain healthy run. A tracer is the protocol's own
// (obs.Traceable.SetTracer), installed before the run.
type Options struct {
	// Faults is a deterministic fault plan compiled against the
	// trace's user population; nil disables fault injection entirely.
	Faults *faults.Plan
	// TimelineWindow, when positive, records per-window telemetry (hit
	// counters, startup-delay histograms, server load, breaker opens)
	// keyed by simulated time into Result.Timeline. 0 disables the
	// recorder and leaves the Result JSON unchanged; a negative window is
	// refused.
	TimelineWindow time.Duration
	// Load, when non-nil, replaces the closed-loop session replay with
	// open-loop arrivals from the rate profile (internal/load): the
	// trace still supplies users, subscriptions and video popularity,
	// but arrival times come from the profile and no longer wait for
	// session completion. Result.Load carries the accounting.
	Load *load.Profile
}

// Repairer is implemented by protocols with active self-repair: when
// the fault layer decides a crash has been detected, RepairNeighbors
// lets the dead node's neighbors select replacement links immediately
// instead of waiting for their probe period. Baselines without the
// hook recover through probing alone — exactly the asymmetry the
// churn-resilience figure measures.
type Repairer interface {
	RepairNeighbors(dead int) (links, msgs int)
}

// Reseeder is implemented by protocols that refresh prefetched content
// when a crashed node rejoins (SocialTube's §IV-B prefetch re-seeding).
type Reseeder interface {
	Reseed(node int) int
}

// Resilience aggregates a run's degradation-and-recovery metrics. All
// fields stay zero without a fault plan.
type Resilience struct {
	// Crashes / Rejoins count applied churn events.
	Crashes uint64 `json:"crashes"`
	Rejoins uint64 `json:"rejoins"`
	// RepairRounds counts detected crashes handed to the protocol;
	// RepairedLinks / RepairMsgs are the work its repair hook did.
	RepairRounds  uint64 `json:"repairRounds"`
	RepairedLinks uint64 `json:"repairedLinks"`
	RepairMsgs    uint64 `json:"repairMsgs"`
	// PrefixesReseeded counts prefetch prefixes restored on rejoin.
	PrefixesReseeded uint64 `json:"prefixesReseeded"`
	// LinkFailures counts located providers lost to a link burst
	// (the request fell back to the server).
	LinkFailures uint64 `json:"linkFailures"`
	// ChaosFailures counts located providers lost to a frame-chaos
	// window (corrupted/truncated/stalled delivery).
	ChaosFailures uint64 `json:"chaosFailures"`
	// ServerDeferred counts server requests that had to wait out a
	// tracker outage.
	ServerDeferred uint64 `json:"serverDeferred"`
	// RequestsDuringFaults / PeerServedDuringFaults measure hit rate
	// while any fault is active (crashed nodes or open windows):
	// "peer served" means the request never touched the server.
	RequestsDuringFaults   uint64 `json:"requestsDuringFaults"`
	PeerServedDuringFaults uint64 `json:"peerServedDuringFaults"`
	// RepairLatencyMs samples crash→repair-complete time per
	// repaired crash, in milliseconds.
	RepairLatencyMs obs.Hist `json:"repairLatencyMs"`
	// OrphanFraction samples, after each detected crash, the fraction
	// of online nodes left with zero overlay links.
	OrphanFraction obs.Hist `json:"orphanFraction"`
}

// HitRateUnderFaults is the fraction of fault-time requests that peers
// (or the local cache) still served; 0 when no request saw a fault.
func (r *Resilience) HitRateUnderFaults() float64 {
	if r.RequestsDuringFaults == 0 {
		return 0
	}
	return float64(r.PeerServedDuringFaults) / float64(r.RequestsDuringFaults)
}

// scheduleFaults compiles the plan against the runner's population and
// schedules every event of it.
func (r *runner) scheduleFaults(plan *faults.Plan) error {
	if len(plan.Partitions) > 0 {
		// One global tracker state has no side to cut off.
		return fmt.Errorf("%w: the simulator cannot run a network partition", dist.ErrBadParameter)
	}
	sched, err := plan.Compile(len(r.tr.Users))
	if err != nil {
		return fmt.Errorf("fault plan: %w", err)
	}
	r.repairer, _ = r.proto.(Repairer)
	r.reseeder, _ = r.proto.(Reseeder)
	r.faults = sched.Events
	for i, ev := range r.faults {
		if ev.Kind == faults.KindRejoin {
			r.rejoinsPending++
		}
		r.engine.Schedule(ev.At, r.onFault, uint64(i))
	}
	return nil
}

// applyFault fires one compiled event. Churn events go through the apply*
// handlers; every other event opens or closes a window of r.win.
func (r *runner) applyFault(ev faults.Event, now time.Duration) {
	switch ev.Kind {
	case faults.KindCrash:
		r.applyCrash(ev.Node, now)
	case faults.KindRejoin:
		r.rejoinsPending--
		r.applyRejoin(ev.Node, now)
	case faults.KindRepair:
		r.applyRepair(ev, now)
	default:
		r.win.Apply(ev)
	}
}

// applyCrash takes the node down abruptly: the protocol sees Fail (so
// neighbors keep dangling links until probed or repaired) and the
// node's session chain is abandoned mid-video.
func (r *runner) applyCrash(node int, now time.Duration) {
	if r.crashed[node] {
		return
	}
	r.crashed[node] = true
	r.crashedCount++
	r.res.Resilience.Crashes++
	if r.online[node] {
		r.online[node] = false
		r.tick(now)
		r.proto.Fail(node)
	}
}

// applyRejoin brings a crashed node back: if it still has sessions to
// run it starts one right away (Join reconnects surviving links), and
// a Reseeder protocol refreshes its prefetched prefixes.
func (r *runner) applyRejoin(node int, now time.Duration) {
	if !r.crashed[node] {
		return
	}
	r.crashed[node] = false
	r.crashedCount--
	r.res.Resilience.Rejoins++
	if r.online[node] || r.sessionsLeft[node] <= 0 {
		return
	}
	r.startSession(node, now)
	if r.reseeder != nil && r.online[node] {
		r.res.Resilience.PrefixesReseeded += uint64(r.reseeder.Reseed(node))
	}
}

// applyRepair fires when the crash has been detected by the dead
// node's neighbors: a Repairer protocol runs replacement-link
// selection; afterwards the orphan fraction is sampled so every
// protocol (repairing or not) is measured at the same instants.
func (r *runner) applyRepair(ev faults.Event, now time.Duration) {
	if !r.crashed[ev.Node] {
		return // rejoined (or never crashed): nothing to repair
	}
	if r.repairer != nil {
		links, msgs := r.repairer.RepairNeighbors(ev.Node)
		rz := &r.res.Resilience
		rz.RepairRounds++
		rz.RepairedLinks += uint64(links)
		rz.RepairMsgs += uint64(msgs)
		if links > 0 || msgs > 0 {
			rz.RepairLatencyMs.Add(float64(now-ev.CrashedAt) / float64(time.Millisecond))
		}
	}
	r.res.Resilience.OrphanFraction.Add(r.orphanFraction())
}

// orphanFraction is the fraction of online nodes with zero overlay
// links — nodes a crash cut off until maintenance reattaches them.
func (r *runner) orphanFraction() float64 {
	online, orphans := 0, 0
	for node := range r.online {
		if !r.online[node] {
			continue
		}
		online++
		if r.proto.Links(node) == 0 {
			orphans++
		}
	}
	if online == 0 {
		return 0
	}
	return float64(orphans) / float64(online)
}

// accountFaults post-processes one request result under active faults:
// during a link burst a located provider may be unreachable (the
// request falls back to the server), and fault-time hit rates are
// accounted. Without a plan every branch is a cheap false comparison
// and no randomness is drawn, keeping healthy runs bit-identical.
func (r *runner) accountFaults(res *vod.RequestResult) {
	if p := r.win.Loss(0); p > 0 && res.Source == vod.SourcePeer && r.g.Bool(p) {
		res.Source = vod.SourceServer
		r.res.Resilience.LinkFailures++
	}
	if p := r.win.ChaosLoss(); p > 0 && res.Source == vod.SourcePeer && r.g.Bool(p) {
		res.Source = vod.SourceServer
		r.res.Resilience.ChaosFailures++
	}
	if r.crashedCount > 0 || r.win.Open() {
		r.res.Resilience.RequestsDuringFaults++
		if res.Source != vod.SourceServer {
			r.res.Resilience.PeerServedDuringFaults++
		}
	}
}
