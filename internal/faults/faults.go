// Package faults is the deterministic fault-injection layer: a seeded
// Plan of adversarial conditions (churn waves, link latency/loss bursts,
// tracker outages, frame chaos, network partitions) compiles into a flat,
// time-ordered Schedule of events.
//
// The same compiled Schedule drives both halves of the evaluation: the
// discrete-event simulator applies each event at its virtual timestamp
// (internal/exp), and the TCP emulation replays the identical event
// list over wall-clock offsets (internal/emu). Compilation is a pure
// function of (Plan, nodes): every random choice — which nodes a wave
// takes down, the jitter inside a wave's spread, the per-crash
// detection delay — comes from one dist.RNG seeded with Plan.Seed, so
// one seed replays bit-identically everywhere.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
)

// ChurnWave takes a batch of nodes down (crash, not graceful leave)
// around the same time — the paper's node-dynamism stressor.
type ChurnWave struct {
	// At is when the wave begins.
	At time.Duration
	// Spread jitters each crash uniformly over [At, At+Spread].
	Spread time.Duration
	// Fraction of eligible nodes to crash (used when Count is 0).
	Fraction float64
	// Count of nodes to crash; overrides Fraction when positive.
	Count int
	// DownFor is how long each crashed node stays gone before it
	// rejoins; 0 means it never comes back.
	DownFor time.Duration
}

// LinkBurst degrades every link for a window: latencies multiply by
// LatencyFactor and peer fetches fail with probability LossP.
type LinkBurst struct {
	At       time.Duration
	Duration time.Duration
	// LatencyFactor scales link latency during the burst. Factors > 1
	// degrade propagation; factors in (0,1) model a recovery/boost
	// window. 0 means unchanged (treated as 1); negatives are
	// rejected at Validate.
	LatencyFactor float64
	// LossP is the probability a located provider is unreachable
	// through the degraded links, forcing server fallback.
	LossP float64
}

// Outage takes the tracker/server offline for a window: requests to it
// go unanswered until the window closes. On a sharded control plane the
// outage can be narrowed to one shard, or one replica of one shard; the
// zero targeting (legacy plans) darkens the whole plane.
type Outage struct {
	At       time.Duration
	Duration time.Duration
	// Shard targets one tracker shard, 1-based (Shard s darkens shard
	// s-1). 0 targets the whole control plane — the legacy whole-tracker
	// outage.
	Shard int
	// Replica narrows a sharded outage to one replica of the shard,
	// 1-based. 0 takes every replica of the targeted shard down.
	// Replica > 0 requires Shard > 0.
	Replica int
}

// ChaosBurst injects frame-level wire faults for a window: each frame a
// node writes is independently corrupted, truncated, duplicated or
// stalled with the given probabilities (at most one fault per frame,
// evaluated in that order). The emu transport applies these literally on
// its sockets; the simulator, which has no frames, accounts the window
// as a degraded period like a link burst.
type ChaosBurst struct {
	At       time.Duration
	Duration time.Duration
	// CorruptP flips bytes after the frame's length prefix, so the receiver
	// sees a well-framed message whose checksum fails: always undecodable,
	// which is why the simulator books the frame as lost.
	CorruptP float64
	// TruncateP writes a header promising more bytes than follow, so the
	// receiver blocks until EOF and sees an unexpected-EOF error.
	TruncateP float64
	// DuplicateP writes the frame twice; the caller's next exchange on
	// the connection skips the copy by its exchange number.
	DuplicateP float64
	// StallP delays the frame by StallFor before writing it, driving
	// receivers into their timeout path.
	StallP float64
	// StallFor is the stall delay (required when StallP > 0).
	StallFor time.Duration
}

// Partition splits the cluster — tracker replicas and peers alike —
// into Groups sides for a window: traffic within a side flows normally,
// traffic across the cut is dropped at the sender (and backstopped at
// the receiver). Gossip must not converge across the cut; both sides
// keep serving whatever shards they can reach, and the versioned LWW
// merge re-converges the member tables after the heal. The emulation
// applies the cut literally on its RPC paths; the simulator, which has
// one global tracker state, refuses a plan with partitions.
type Partition struct {
	At       time.Duration
	Duration time.Duration
	// Groups is how many sides the cut creates (≥ 2). Node n — peer id
	// or tracker replica index — lands on side n%Groups, so sides are
	// stable and seeded placement stays deterministic.
	Groups int
}

// Plan is a declarative, seeded description of every fault a run
// suffers. The zero value is a healthy run.
type Plan struct {
	// Seed drives every random choice made during compilation.
	Seed int64
	// DetectDelay bounds how long neighbors take to notice a crash:
	// each crash schedules a repair event a uniform (0, DetectDelay]
	// later. 0 disables repair events (recovery rides probes alone).
	DetectDelay time.Duration
	Waves       []ChurnWave
	Bursts      []LinkBurst
	Outages     []Outage
	Chaos       []ChaosBurst
	Partitions  []Partition
}

// Kind identifies what a compiled fault event does.
type Kind uint8

const (
	// KindCrash takes one node down abruptly.
	KindCrash Kind = iota + 1
	// KindRejoin brings a crashed node back.
	KindRejoin
	// KindRepair fires when the dead node's neighbors have detected
	// the crash and run replacement-link selection.
	KindRepair
	// KindBurstStart / KindBurstEnd bracket a link degradation window.
	KindBurstStart
	KindBurstEnd
	// KindOutageStart / KindOutageEnd bracket a tracker/server outage.
	KindOutageStart
	KindOutageEnd
	// KindChaosStart / KindChaosEnd bracket a frame-level wire-fault
	// window (corrupt/truncate/duplicate/stall).
	KindChaosStart
	KindChaosEnd
	// KindPartitionStart / KindPartitionEnd bracket a network split: the
	// cluster divides into Groups sides that cannot talk across the cut.
	KindPartitionStart
	KindPartitionEnd
)

var kindNames = [...]string{KindCrash: "crash", KindRejoin: "rejoin", KindRepair: "repair",
	KindBurstStart: "burst-start", KindBurstEnd: "burst-end", KindOutageStart: "outage-start",
	KindOutageEnd: "outage-end", KindChaosStart: "chaos-start", KindChaosEnd: "chaos-end",
	KindPartitionStart: "partition-start", KindPartitionEnd: "partition-end"}

func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one compiled fault action. Consumers switch on Kind; fields
// beyond At/Kind are populated only where meaningful.
type Event struct {
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`
	// Node is the target of crash/rejoin/repair events; -1 for
	// window events.
	Node int `json:"node"`
	// CrashedAt, on a repair event, is when the node it repairs went
	// down (repair latency = At - CrashedAt).
	CrashedAt time.Duration `json:"crashedAt,omitempty"`
	// Until, on a *Start event, is when the window closes.
	Until time.Duration `json:"until,omitempty"`
	// LatencyFactor and LossP carry a burst's parameters.
	LatencyFactor float64 `json:"latencyFactor,omitempty"`
	LossP         float64 `json:"lossP,omitempty"`
	// Shard and Replica carry an outage's control-plane targeting
	// (1-based; 0 = whole plane / all replicas). Both appear on the
	// start and end events, so replays never have to pair windows to
	// find the target. omitempty keeps legacy whole-plane schedules
	// byte-identical.
	Shard   int `json:"shard,omitempty"`
	Replica int `json:"replica,omitempty"`
	// CorruptP, TruncateP, DuplicateP, StallP and StallFor carry a chaos
	// burst's frame-fault mix.
	CorruptP   float64       `json:"corruptP,omitempty"`
	TruncateP  float64       `json:"truncateP,omitempty"`
	DuplicateP float64       `json:"duplicateP,omitempty"`
	StallP     float64       `json:"stallP,omitempty"`
	StallFor   time.Duration `json:"stallFor,omitempty"`
	// Groups carries a partition's side count (on both the start and end
	// events). omitempty keeps archived partitionless schedules
	// byte-identical.
	Groups int `json:"groups,omitempty"`
}

// Schedule is a compiled plan: events sorted by At (insertion order
// breaks ties), ready to be replayed by either runtime.
type Schedule struct {
	Events []Event
	// Crashes counts the KindCrash events, for quick sanity checks.
	Crashes int
}

// Validate rejects plans that cannot compile into a sane schedule.
func (p *Plan) Validate() error {
	if p.DetectDelay < 0 {
		return fmt.Errorf("faults: DetectDelay %v negative", p.DetectDelay)
	}
	for i, w := range p.Waves {
		switch {
		case w.At < 0 || w.Spread < 0 || w.DownFor < 0:
			return fmt.Errorf("faults: wave %d has a negative time", i)
		case w.Count < 0:
			return fmt.Errorf("faults: wave %d Count %d negative", i, w.Count)
		case w.Fraction < 0 || w.Fraction > 1:
			return fmt.Errorf("faults: wave %d Fraction %g outside [0,1]", i, w.Fraction)
		case w.Count == 0 && w.Fraction == 0:
			return fmt.Errorf("faults: wave %d selects no nodes (Count and Fraction both zero)", i)
		}
	}
	var bursts, chaos, partitions []span
	for i, b := range p.Bursts {
		switch {
		case b.At < 0 || b.Duration <= 0:
			return fmt.Errorf("faults: burst %d needs At ≥ 0 and Duration > 0", i)
		case b.LossP < 0 || b.LossP > 1:
			return fmt.Errorf("faults: burst %d LossP %g outside [0,1]", i, b.LossP)
		case b.LatencyFactor < 0:
			return fmt.Errorf("faults: burst %d LatencyFactor %g negative", i, b.LatencyFactor)
		}
		bursts = append(bursts, span{b.At, b.At + b.Duration})
	}
	for i, o := range p.Outages {
		switch {
		case o.At < 0 || o.Duration <= 0:
			return fmt.Errorf("faults: outage %d needs At ≥ 0 and Duration > 0", i)
		case o.Shard < 0 || o.Replica < 0:
			return fmt.Errorf("faults: outage %d targeting is 1-based (0 = whole plane), got shard %d replica %d",
				i, o.Shard, o.Replica)
		case o.Replica > 0 && o.Shard == 0:
			return fmt.Errorf("faults: outage %d targets replica %d without a shard", i, o.Replica)
		}
	}
	for i, c := range p.Chaos {
		switch {
		case c.At < 0 || c.Duration <= 0:
			return fmt.Errorf("faults: chaos burst %d needs At ≥ 0 and Duration > 0", i)
		case bad01(c.CorruptP) || bad01(c.TruncateP) || bad01(c.DuplicateP) || bad01(c.StallP):
			return fmt.Errorf("faults: chaos burst %d has a probability outside [0,1]", i)
		case c.CorruptP+c.TruncateP+c.DuplicateP+c.StallP == 0:
			return fmt.Errorf("faults: chaos burst %d injects nothing (all probabilities zero)", i)
		case c.CorruptP+c.TruncateP+c.DuplicateP+c.StallP > 1:
			return fmt.Errorf("faults: chaos burst %d probabilities sum to %g > 1",
				i, c.CorruptP+c.TruncateP+c.DuplicateP+c.StallP)
		case c.StallP > 0 && c.StallFor <= 0:
			return fmt.Errorf("faults: chaos burst %d has StallP %g but no StallFor", i, c.StallP)
		case c.StallFor < 0:
			return fmt.Errorf("faults: chaos burst %d StallFor %v negative", i, c.StallFor)
		}
		chaos = append(chaos, span{c.At, c.At + c.Duration})
	}
	for i, pt := range p.Partitions {
		switch {
		case pt.At < 0 || pt.Duration <= 0:
			return fmt.Errorf("faults: partition %d needs At ≥ 0 and Duration > 0", i)
		case pt.Groups < 2:
			return fmt.Errorf("faults: partition %d Groups %d must be ≥ 2", i, pt.Groups)
		}
		partitions = append(partitions, span{pt.At, pt.At + pt.Duration})
	}
	// A Window holds one open burst, chaos window and partition at a time;
	// outages may overlap.
	for k, spans := range [][]span{bursts, chaos, partitions} {
		for i, a := range spans {
			for j, b := range spans[i+1:] {
				if a.at < b.end && b.at < a.end {
					return fmt.Errorf("faults: %s %d and %d overlap",
						[...]string{"bursts", "chaos bursts", "partitions"}[k], i, i+1+j)
				}
			}
		}
	}
	return nil
}

// span is a window's half-open interval [at, end).
type span struct{ at, end time.Duration }

func bad01(p float64) bool { return p < 0 || p > 1 }

// Compile expands the plan against a population of nodes (ids
// 0..nodes-1) into a time-ordered Schedule. Compilation is
// deterministic: the same plan and node count always yield the same
// event list, byte for byte.
func (p *Plan) Compile(nodes int) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("faults: compile against %d nodes", nodes)
	}
	g := dist.NewRNG(p.Seed)
	var evs []Event
	crashes := 0
	for _, w := range p.Waves {
		count := w.Count
		if count == 0 {
			count = int(math.Ceil(w.Fraction * float64(nodes)))
		}
		count = min(count, nodes)
		for _, node := range g.Perm(nodes)[:count] {
			at := w.At
			if w.Spread > 0 {
				at += time.Duration(g.Float64() * float64(w.Spread))
			}
			evs = append(evs, Event{At: at, Kind: KindCrash, Node: node})
			crashes++
			if p.DetectDelay > 0 {
				detect := time.Duration(g.Float64()*float64(p.DetectDelay)) + 1
				evs = append(evs, Event{At: at + detect, Kind: KindRepair, Node: node, CrashedAt: at})
			}
			if w.DownFor > 0 {
				evs = append(evs, Event{At: at + w.DownFor, Kind: KindRejoin, Node: node})
			}
		}
	}
	for _, b := range p.Bursts {
		f := b.LatencyFactor
		if f == 0 {
			// Unset means latency unchanged; factors in (0,1) are
			// preserved — they model a recovery/boost window.
			f = 1
		}
		end := b.At + b.Duration
		evs = append(evs,
			Event{At: b.At, Kind: KindBurstStart, Node: -1, Until: end, LatencyFactor: f, LossP: b.LossP},
			Event{At: end, Kind: KindBurstEnd, Node: -1})
	}
	for _, o := range p.Outages {
		end := o.At + o.Duration
		evs = append(evs,
			Event{At: o.At, Kind: KindOutageStart, Node: -1, Until: end, Shard: o.Shard, Replica: o.Replica},
			Event{At: end, Kind: KindOutageEnd, Node: -1, Shard: o.Shard, Replica: o.Replica})
	}
	for _, c := range p.Chaos {
		end := c.At + c.Duration
		evs = append(evs,
			Event{At: c.At, Kind: KindChaosStart, Node: -1, Until: end,
				CorruptP: c.CorruptP, TruncateP: c.TruncateP,
				DuplicateP: c.DuplicateP, StallP: c.StallP, StallFor: c.StallFor},
			Event{At: end, Kind: KindChaosEnd, Node: -1})
	}
	for _, pt := range p.Partitions {
		end := pt.At + pt.Duration
		evs = append(evs,
			Event{At: pt.At, Kind: KindPartitionStart, Node: -1, Until: end, Groups: pt.Groups},
			Event{At: end, Kind: KindPartitionEnd, Node: -1, Groups: pt.Groups})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return &Schedule{Events: evs, Crashes: crashes}, nil
}

// ChurnPlan is the standard churn-resilience stress used by the churn
// figure and demos: a 30% crash wave that rejoins after two units, a
// tracker outage, then a lossy high-latency burst, with neighbor crash
// detection within a quarter unit. The unit sets the time base — pick
// roughly one session cycle of the workload being stressed.
func ChurnPlan(seed int64, unit time.Duration) *Plan {
	return &Plan{
		Seed:        seed,
		DetectDelay: unit / 4,
		Waves: []ChurnWave{
			{At: unit, Spread: unit / 2, Fraction: 0.3, DownFor: 2 * unit},
		},
		Outages: []Outage{
			{At: 2 * unit, Duration: unit / 2},
		},
		Bursts: []LinkBurst{
			{At: 3 * unit, Duration: unit / 2, LatencyFactor: 3, LossP: 0.25},
		},
	}
}

// ReplicaOutagePlan darkens one replica of one tracker shard (1-based)
// for two units starting at one unit, with no churn and no other faults.
// It is the sharded-outage figure's stressor: with a replicated control
// plane the expected effect on the hit rate is ~zero, because peers fail
// over to the shard's surviving replica, and the absence of churn keeps
// request totals deterministic for the comparison.
func ReplicaOutagePlan(seed int64, unit time.Duration, shard, replica int) *Plan {
	return &Plan{
		Seed: seed,
		Outages: []Outage{
			{At: unit, Duration: 2 * unit, Shard: shard, Replica: replica},
		},
	}
}

// ShardOutagePlan darkens EVERY replica of one tracker shard (1-based)
// for two units starting at one unit — the whole-shard-death stressor
// behind the takeover figure. Unlike ReplicaOutagePlan there is no
// surviving sibling: recovery requires the other shards' replicas to
// declare the shard dead via gossip liveness and for peers to
// re-rendezvous its channels onto the survivors.
func ShardOutagePlan(seed int64, unit time.Duration, shard int) *Plan {
	return &Plan{
		Seed: seed,
		Outages: []Outage{
			{At: unit, Duration: 2 * unit, Shard: shard, Replica: 0},
		},
	}
}

// PartitionPlan splits the cluster into groups sides for two units
// starting at one unit, with no churn and no other faults — the
// split-brain stressor behind the takeover figure's partition variant.
// Both sides keep serving their reachable replicas; the versioned LWW
// merge plus hinted handoff must re-converge the member tables after
// the heal with zero lost registrations.
func PartitionPlan(seed int64, unit time.Duration, groups int) *Plan {
	return &Plan{
		Seed: seed,
		Partitions: []Partition{
			{At: unit, Duration: 2 * unit, Groups: groups},
		},
	}
}

// OutagePlan is a tracker-outage scenario with background churn: a
// small crash wave, then the tracker goes dark for one unit starting at
// 2×unit. Used by the emu outage figure (`socialtube-emu -fig outage`).
func OutagePlan(seed int64, unit time.Duration) *Plan {
	return &Plan{
		Seed:        seed,
		DetectDelay: unit / 4,
		Waves: []ChurnWave{
			{At: unit, Spread: unit / 2, Fraction: 0.2, DownFor: 2 * unit},
		},
		Outages: []Outage{
			{At: 2 * unit, Duration: unit},
		},
	}
}
