package emu

import (
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/simnet"
)

// Conditions injects WAN behaviour into loopback TCP: deterministic per-pair
// one-way latency (as between PlanetLab sites) and random message loss (the
// paper attributes PlanetLab's zero 1st-percentile bandwidth partly to
// connection failures), degraded by the open windows of a fault plan.
type Conditions struct {
	// Seed drives the deterministic latency assignment.
	Seed int64
	// MinLatency/MaxLatency bound one-way delay between two nodes.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossP is the probability an incoming request is dropped.
	LossP float64

	// lossCounter and chaosCounter key the per-frame loss and chaos draws.
	lossCounter  atomic.Uint64
	chaosCounter atomic.Uint64
	// win holds the open fault windows (nil until the first event);
	// Apply replaces it whole, so a reader sees one event's fold or the
	// next one's, never a mix.
	win atomic.Pointer[faults.Window]
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

// fresh returns a copy of the template c seeded from seed, with no
// windows and fresh draw counters: what one run injects. A nil template
// gives the zero-valued copy a fault plan folds into.
func (c *Conditions) fresh(seed int64) *Conditions {
	cp := &Conditions{Seed: seed}
	if c != nil {
		cp.MinLatency, cp.MaxLatency, cp.LossP = c.MinLatency, c.MaxLatency, c.LossP
	}
	return cp
}

// Latency returns the deterministic one-way delay between nodes a and b
// (tracker = -1): the simulator's simnet.PairLatency, with MaxLatency
// raised to MinLatency when below it, scaled by an open burst window.
func (c *Conditions) Latency(a, b int) time.Duration {
	if c == nil || c.MaxLatency <= 0 {
		return 0
	}
	return c.window().ScaleLatency(simnet.PairLatency(c.Seed, c.MinLatency, max(c.MinLatency, c.MaxLatency), int64(a), int64(b)))
}

// Apply folds one compiled fault event into the open windows. The fault
// driver calls it once per event, from one goroutine.
func (c *Conditions) Apply(ev faults.Event) {
	var w faults.Window
	if cur := c.win.Load(); cur != nil {
		w = *cur
	}
	w.Apply(ev)
	c.win.Store(&w)
}

// healthy is the window of conditions no fault event has reached.
var healthy faults.Window

// window returns the open windows; never nil, and never written through.
func (c *Conditions) window() *faults.Window {
	if c != nil {
		if w := c.win.Load(); w != nil {
			return w
		}
	}
	return &healthy
}

// Severed reports whether a message between nodes a and b crosses the
// open partition cut (faults.Window.Severed). Ids are peer ids on the
// peer plane and replica indices on the tracker plane.
func (c *Conditions) Severed(a, b int) bool { return c.window().Severed(a, b) }

// nextChaos picks the fault for the next written frame: chaosNone when no
// window is open, otherwise a counter-keyed deterministic draw across the
// window's mix. Healthy runs draw nothing.
func (c *Conditions) nextChaos() (chaosAction, time.Duration) {
	mix, open := c.window().Chaos()
	if !open {
		return chaosNone, 0
	}
	return chaosPick(mix, dist.PairUniform(c.Seed, chaosStream, int64(c.chaosCounter.Add(1))))
}

// chaosPick maps a uniform draw u onto the mix: at most one fault per
// frame, chosen in corrupt → truncate → duplicate → stall order.
func chaosPick(mix faults.ChaosBurst, u float64) (chaosAction, time.Duration) {
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

// Drop reports whether to drop the next message, with probability
// dropP. It is safe for concurrent use; the decision sequence is
// deterministic under the seed, though its interleaving across goroutines
// is not.
func (c *Conditions) Drop() bool {
	p := c.dropP()
	if p <= 0 {
		return false // no counter draw: healthy runs stay deterministic
	}
	return dist.PairUniform(c.Seed, lossStream, int64(c.lossCounter.Add(1))) < p
}

// dropP is LossP combined with an open burst's loss as independent losses
// (faults.Window.Loss).
func (c *Conditions) dropP() float64 {
	if c == nil {
		return 0
	}
	return c.window().Loss(c.LossP)
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
