package emu

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/simnet"
)

// Conditions injects WAN behaviour into loopback TCP: deterministic per-pair
// one-way latency (as between PlanetLab sites) and random message loss (the
// paper attributes PlanetLab's zero 1st-percentile bandwidth partly to
// connection failures).
type Conditions struct {
	// Seed drives the deterministic latency assignment.
	Seed int64
	// MinLatency/MaxLatency bound one-way delay between two nodes.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossP is the probability an incoming request is dropped.
	LossP float64

	lossCounter atomic.Uint64
	// burstLatBits / burstLossBits hold a transient degradation window
	// (float64 bits; 0 means inactive) set by the fault driver: a
	// latency multiplier and an extra loss probability.
	burstLatBits  atomic.Uint64
	burstLossBits atomic.Uint64
	// chaos holds an open frame-chaos window (nil means inactive) set by
	// the fault driver; chaosCounter keys the per-frame fault decision
	// the same way lossCounter keys Drop.
	chaos        atomic.Pointer[ChaosMix]
	chaosCounter atomic.Uint64
	// partGroups holds an open network-partition window (0 means whole):
	// nodes are split into that many sides by id modulo the group count,
	// and messages between different sides are severed — skipped by
	// senders that know both endpoints, dropped on arrival otherwise.
	partGroups atomic.Int64
}

// ChaosMix is the frame-fault blend of an open chaos window: each frame
// written while the window is open suffers at most one fault, chosen in
// corrupt → truncate → duplicate → stall order.
type ChaosMix struct {
	CorruptP   float64
	TruncateP  float64
	DuplicateP float64
	StallP     float64
	StallFor   time.Duration
}

// DefaultConditions returns WAN-like conditions scaled for fast local runs.
func DefaultConditions() *Conditions {
	return &Conditions{
		Seed:       1,
		MinLatency: 2 * time.Millisecond,
		MaxLatency: 25 * time.Millisecond,
		LossP:      0.01,
	}
}

// Latency returns the deterministic one-way delay between nodes a and b
// (tracker = -1): the simulator's simnet.PairLatency, with MaxLatency
// raised to MinLatency when below it, scaled by an open burst window.
func (c *Conditions) Latency(a, b int) time.Duration {
	if c == nil || c.MaxLatency <= 0 {
		return 0
	}
	d := simnet.PairLatency(c.Seed, c.MinLatency, max(c.MinLatency, c.MaxLatency), int64(a), int64(b))
	if bits := c.burstLatBits.Load(); bits != 0 {
		if f := math.Float64frombits(bits); f > 0 {
			d = time.Duration(float64(d) * f)
		}
	}
	return d
}

// SetBurst opens a degradation window: every latency is multiplied by a
// positive latencyFactor, as the simulator does — above 1 degrades, in
// (0,1) models a recovery window — and messages are additionally dropped
// with probability lossP. A factor ≤ 0 leaves latency unchanged. Nil
// receivers and out-of-range values are tolerated so the fault driver can
// call this unconditionally.
func (c *Conditions) SetBurst(latencyFactor, lossP float64) {
	if c == nil {
		return
	}
	if lossP < 0 {
		lossP = 0
	} else if lossP > 1 {
		lossP = 1
	}
	c.burstLatBits.Store(math.Float64bits(latencyFactor))
	c.burstLossBits.Store(math.Float64bits(lossP))
}

// ClearBurst closes the degradation window.
func (c *Conditions) ClearBurst() {
	if c == nil {
		return
	}
	c.burstLatBits.Store(0)
	c.burstLossBits.Store(0)
}

// SetChaos opens a frame-chaos window: every frame written through the
// chaos-aware write path suffers one of the mix's faults with the given
// probabilities. Nil receivers and nil mixes are tolerated so the fault
// driver can call this unconditionally.
func (c *Conditions) SetChaos(mix *ChaosMix) {
	if c == nil {
		return
	}
	if mix == nil {
		c.chaos.Store(nil)
		return
	}
	m := *mix // private copy: the driver may reuse its buffer
	c.chaos.Store(&m)
}

// ClearChaos closes the frame-chaos window.
func (c *Conditions) ClearChaos() {
	if c == nil {
		return
	}
	c.chaos.Store(nil)
}

// SetPartition opens a partition window splitting the network into
// groups sides: node n (peer id, or tracker replica index) lands on side
// n % groups, and traffic between different sides is severed. groups < 2
// clears the window. Nil receivers are tolerated so the fault driver can
// call this unconditionally.
func (c *Conditions) SetPartition(groups int) {
	if c == nil {
		return
	}
	if groups < 2 {
		groups = 0
	}
	c.partGroups.Store(int64(groups))
}

// ClearPartition heals the partition.
func (c *Conditions) ClearPartition() {
	if c == nil {
		return
	}
	c.partGroups.Store(0)
}

// Severed reports whether a message between nodes a and b crosses the
// open partition cut. Ids are peer ids on the peer plane and replica
// indices on the tracker plane; negatives (the tracker sentinel -1, or
// an unknown sender) are folded to side 0 so tracker-originated traffic
// is never cut off from the id-0 side by accident. Healthy runs
// take the zero-load branch and draw nothing.
func (c *Conditions) Severed(a, b int) bool {
	if c == nil {
		return false
	}
	g := c.partGroups.Load()
	if g == 0 {
		return false
	}
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	return a%int(g) != b%int(g)
}

// nextChaos picks the fault for the next written frame: chaosNone when no
// window is open, otherwise a counter-keyed deterministic draw across the
// mix (at most one fault per frame). Healthy runs take the nil-load
// branch and draw nothing.
func (c *Conditions) nextChaos() (chaosAction, time.Duration) {
	if c == nil {
		return chaosNone, 0
	}
	mix := c.chaos.Load()
	if mix == nil {
		return chaosNone, 0
	}
	u := dist.PairUniform(c.Seed, chaosStream, int64(c.chaosCounter.Add(1)))
	switch {
	case u < mix.CorruptP:
		return chaosCorrupt, 0
	case u < mix.CorruptP+mix.TruncateP:
		return chaosTruncate, 0
	case u < mix.CorruptP+mix.TruncateP+mix.DuplicateP:
		return chaosDuplicate, 0
	case u < mix.CorruptP+mix.TruncateP+mix.DuplicateP+mix.StallP:
		return chaosStall, mix.StallFor
	}
	return chaosNone, 0
}

// Drop reports whether to drop the next message. An open burst's loss q is
// independent of the baseline LossP p, so a message survives only if it
// escapes both: it is dropped with probability 1-(1-p)(1-q). It is safe
// for concurrent use; the decision sequence is deterministic under the
// seed, though its interleaving across goroutines is not.
func (c *Conditions) Drop() bool {
	if c == nil {
		return false
	}
	p := c.LossP
	if bits := c.burstLossBits.Load(); bits != 0 {
		q := math.Float64frombits(bits)
		p += q - p*q // 1-(1-p)(1-q), exact when either is 0
	}
	if p <= 0 {
		return false // no counter draw: healthy runs stay deterministic
	}
	return dist.PairUniform(c.Seed, lossStream, int64(c.lossCounter.Add(1))) < p
}

// The per-frame draw streams: a frame's loss or chaos decision is
// PairUniform over (seed, stream, frame counter) — stateless, so a counter
// always gives the same decision and a draw allocates nothing. Stream ids
// sit below every node id (the tracker is -1), so no frame draw reuses a
// latency pair's value.
const (
	lossStream  = -2
	chaosStream = -3
)
