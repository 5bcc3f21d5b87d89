// Package sim is a discrete-event simulation engine — the PeerSim
// substitute used by all trace-driven experiments. It provides a virtual
// clock, a binary-heap event queue with deterministic tie-breaking and a
// run loop bounded by either a horizon or an event budget.
package sim

import (
	"context"
	"time"
)

// Event is a callback scheduled to fire at a virtual time.
type Event func(now time.Duration)

// Handler is a callback scheduled with a payload word, h(now, arg). Bound
// once, it schedules values: the payload carries what a closure would
// capture, so a stream of its events allocates nothing.
type Handler func(now time.Duration, arg uint64)

// scheduled is one queued event, 32 bytes.
type scheduled struct {
	at   time.Duration
	seq  uint64 // insertion order breaks ties deterministically
	fire Handler
	arg  uint64
}

// before is the queue order: time, then insertion sequence. Sequence
// numbers are unique, so the order is total and any correct heap pops
// the same sequence.
func (s *scheduled) before(o *scheduled) bool {
	return s.at < o.at || s.at == o.at && s.seq < o.seq
}

// Engine is the simulation core. The zero value is not usable; construct
// with NewEngine. Engine is not safe for concurrent use: a simulation runs
// single-threaded, which is what makes it deterministic.
type Engine struct {
	now time.Duration
	// queue is a binary min-heap of values under scheduled.before.
	queue []scheduled
	seq   uint64
	fired uint64
	// hwm is the largest queue length ever reached — the heap's
	// high-water mark, reported via Stats.
	hwm int
	// parked holds the closures At queued until they fire: a closure is
	// queued as runParked with its slot as the payload, and free lists
	// the slots to reuse.
	parked    []Event
	free      []uint64
	runParked Handler
}

// Stats is the engine's lifetime accounting, reported alongside protocol
// counters in experiment results. Field order is the JSON order.
type Stats struct {
	// EventsFired counts events executed.
	EventsFired uint64 `json:"eventsFired"`
	// EventsScheduled counts events ever pushed (the sequence counter).
	EventsScheduled uint64 `json:"eventsScheduled"`
	// HeapHighWater is the maximum number of simultaneously queued events.
	HeapHighWater int `json:"heapHighWater"`
}

// Stats returns the engine's accounting snapshot.
func (e *Engine) Stats() Stats {
	return Stats{EventsFired: e.fired, EventsScheduled: e.seq, HeapHighWater: e.hwm}
}

// NewEngine returns an engine with an empty queue at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.runParked = func(now time.Duration, slot uint64) {
		fn := e.parked[slot]
		e.parked[slot] = nil
		e.free = append(e.free, slot)
		fn(now)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at the absolute virtual time at. Events scheduled
// in the past fire immediately at the current time (time never goes
// backwards).
func (e *Engine) At(at time.Duration, fn Event) {
	if fn == nil {
		return
	}
	slot := uint64(len(e.parked))
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
		e.parked[slot] = fn
	} else {
		e.parked = append(e.parked, fn)
	}
	e.push(at, e.runParked, slot)
}

// Schedule queues h(now, arg) at the absolute virtual time at, clamped to
// the current time: At's queue and order without a closure.
func (e *Engine) Schedule(at time.Duration, h Handler, arg uint64) {
	if h != nil {
		e.push(at, h, arg)
	}
}

// push queues one event.
func (e *Engine) push(at time.Duration, h Handler, arg uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := scheduled{at: at, seq: e.seq, fire: h, arg: arg}
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for p := (i - 1) / 2; i > 0 && ev.before(&q[p]); p = (i - 1) / 2 {
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	if len(q) > e.hwm {
		e.hwm = len(q)
	}
}

// pop removes and returns the earliest event. It zeroes the vacated slot,
// so the backing array does not keep a fired handler alive.
func (e *Engine) pop() scheduled {
	q := e.queue
	top, n := q[0], len(q)-1
	last, i := q[n], 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	q[n] = scheduled{}
	e.queue = q[:n]
	return top
}

// After schedules fn to run delay after the current virtual time; a
// negative delay fires it now, as At does a past time.
func (e *Engine) After(delay time.Duration, fn Event) { e.At(e.now+delay, fn) }

// Run is RunCtx without cancellation.
func (e *Engine) Run(horizon time.Duration, maxEvents uint64) error {
	return e.RunCtx(context.Background(), horizon, maxEvents)
}

// ctxCheckInterval is how many events RunCtx fires between context
// checks: frequent enough for prompt cancellation, rare enough to keep
// the check off the per-event fast path.
const ctxCheckInterval = 256

// RunCtx executes events in (time, insertion) order until the queue
// drains, the virtual clock passes horizon (0 means no horizon), or
// maxEvents have fired in total across this engine's lifetime (0 means
// unbounded). It checks ctx before its first event and then every
// ctxCheckInterval fires, returning ctx.Err() on cancellation. A nil ctx
// behaves like context.Background().
//
// Returning for any reason leaves unfired events queued: a horizon,
// budget or cancellation return keeps the remaining schedule intact, so a
// later call with a larger horizon (or budget) resumes exactly where this
// one left off. On a horizon return the clock advances to the horizon
// itself; a second call with the same horizon fires nothing. The horizon
// check precedes the budget check, so when the budget runs out with only
// beyond-horizon events left the clock still advances to the horizon — a
// budget return and a horizon return report consistent clocks.
func (e *Engine) RunCtx(ctx context.Context, horizon time.Duration, maxEvents uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for n := uint(0); len(e.queue) > 0; n++ {
		if n%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if horizon > 0 && e.queue[0].at > horizon {
			e.now = horizon
			return nil
		}
		if maxEvents > 0 && e.fired >= maxEvents {
			return nil
		}
		ev := e.pop()
		e.now = ev.at
		ev.fire(e.now, ev.arg)
		e.fired++
	}
	return nil
}
