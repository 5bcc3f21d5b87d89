// Package health tracks per-peer delivery health with a small circuit
// breaker, so dead neighbours stop eating the retry budget on the query,
// connect and chunk paths.
//
// The state machine per tracked peer is the classic three-state breaker:
//
//	closed ──K consecutive failures──▶ open ──OpenFor elapses──▶ half-open
//	  ▲                                                              │
//	  ├──────────────────── probe succeeds ──────────────────────────┘
//	  └─ open again on probe failure ◀───────────────────────────────┘
//
// Closed admits every call. Open short-circuits every call until OpenFor
// has elapsed. Half-open admits exactly one probation probe: success
// closes the breaker, failure re-opens it for another OpenFor window.
//
// Time is passed explicitly as a time.Duration offset rather than read
// from a clock, so the simulator drives breakers with virtual timestamps
// and the emulator with wall-clock offsets from its epoch — the same
// deterministic state machine either way. All operations are
// allocation-free after construction, which keeps the breaker check legal
// on the sim's zero-allocation Request hot path.
package health

import "time"

// Threshold is K: consecutive failures before a breaker opens. It mirrors
// the emulator's retry budget of three strikes.
const Threshold = 3

// Config parameterises a breaker set.
type Config struct {
	// OpenFor is how long an open breaker rejects calls before allowing
	// a half-open probation probe.
	OpenFor time.Duration
}

// DefaultConfig backs off for well over an RPC timeout before probing
// again.
func DefaultConfig() Config {
	return Config{OpenFor: 30 * time.Second}
}

// State is a breaker's position in the closed/open/half-open machine.
type State uint8

// Breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the per-peer record. Kept small: the sim allocates one per
// node up front and never again.
type breaker struct {
	fails     int           // consecutive failures while closed
	openUntil time.Duration // when an open breaker may probe again
	state     State
	probing   bool // half-open probe currently in flight
}

// Set tracks one breaker per dense integer peer id. Not safe for
// concurrent use; callers that share a Set across goroutines (the
// emulator) wrap it in their own mutex. The zero Set is unusable — use
// NewSet.
type Set struct {
	cfg Config
	b   []breaker

	// Opens, Skips, Probes and Recoveries count state transitions and
	// short-circuited calls since construction; callers snapshot them
	// into obs.Counters.
	Opens      uint64
	Skips      uint64
	Probes     uint64
	Recoveries uint64
}

// NewSet sizes a breaker table for ids in [0, n). Ids beyond n are
// admitted unconditionally and never tracked (Allow true, Success/Failure
// no-ops), so callers never have to bounds-check.
func NewSet(cfg Config, n int) *Set {
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = DefaultConfig().OpenFor
	}
	if n < 0 {
		n = 0
	}
	return &Set{cfg: cfg, b: make([]breaker, n)}
}

// Ensure grows the table so id is tracked. Amortized-allocating — callers
// on allocation-free hot paths must pre-size with NewSet instead.
func (s *Set) Ensure(id int) {
	if id < len(s.b) {
		return
	}
	nb := make([]breaker, id+1)
	copy(nb, s.b)
	s.b = nb
}

// State reports the breaker state for id (Closed for untracked ids).
func (s *Set) State(id int) State {
	if id < 0 || id >= len(s.b) {
		return Closed
	}
	return s.b[id].state
}

// Allow reports whether a call to id should proceed at time now. An open
// breaker whose window has elapsed transitions to half-open and admits
// exactly one probation probe; further calls are rejected until that
// probe resolves via Success or Failure.
func (s *Set) Allow(id int, now time.Duration) bool {
	if id < 0 || id >= len(s.b) {
		return true
	}
	b := &s.b[id]
	switch b.state {
	case Closed:
		return true
	case Open:
		if now < b.openUntil {
			s.Skips++
			return false
		}
		b.state = HalfOpen
		b.probing = true
		s.Probes++
		return true
	default: // HalfOpen
		if b.probing {
			s.Skips++
			return false
		}
		b.probing = true
		s.Probes++
		return true
	}
}

// Success records a successful call to id, closing a half-open breaker
// and clearing the failure streak.
func (s *Set) Success(id int) {
	if id < 0 || id >= len(s.b) {
		return
	}
	b := &s.b[id]
	if b.state == HalfOpen {
		s.Recoveries++
	}
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.openUntil = 0
}

// Failure records a failed call to id at time now. The Threshold'th
// consecutive failure (or any half-open probe failure) opens the breaker
// until now+OpenFor.
func (s *Set) Failure(id int, now time.Duration) {
	if id < 0 || id >= len(s.b) {
		return
	}
	b := &s.b[id]
	switch b.state {
	case Open:
		// Concurrent callers may report a failure for a call admitted
		// before the breaker opened; the window simply slides.
		b.openUntil = now + s.cfg.OpenFor
		return
	case HalfOpen:
		b.state = Open
		b.probing = false
		b.openUntil = now + s.cfg.OpenFor
		s.Opens++
		return
	}
	b.fails++
	if b.fails >= Threshold {
		b.state = Open
		b.fails = 0
		b.openUntil = now + s.cfg.OpenFor
		s.Opens++
	}
}

// Reset returns id's breaker to pristine closed state. Used when a peer
// announces itself again after rejoining: the re-registration is positive
// evidence, so probation is skipped.
func (s *Set) Reset(id int) {
	if id < 0 || id >= len(s.b) {
		return
	}
	s.b[id] = breaker{}
}
