package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		e.At(d*time.Second, func(now time.Duration) {
			order = append(order, now)
		})
	}
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v, want insertion order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var firedAt time.Duration
	e.At(10*time.Second, func(time.Duration) {
		e.After(5*time.Second, func(now time.Duration) { firedAt = now })
	})
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if firedAt != 15*time.Second {
		t.Fatalf("fired at %v, want 15s", firedAt)
	}
}

func TestPastEventsFireNow(t *testing.T) {
	e := NewEngine()
	var firedAt time.Duration
	e.At(10*time.Second, func(time.Duration) {
		e.At(2*time.Second, func(now time.Duration) { firedAt = now })
	})
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if firedAt != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 10s", firedAt)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5*time.Second, func(now time.Duration) {
		if now != 0 {
			t.Errorf("fired at %v, want 0", now)
		}
		fired = true
	})
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(time.Second, func(time.Duration) { fired++ })
	e.At(time.Hour, func(time.Duration) { fired++ })
	if err := e.Run(time.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d events within horizon, want 1", fired)
	}
	if e.Now() != time.Minute {
		t.Fatalf("clock = %v, want horizon", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1 beyond-horizon event retained", len(e.queue))
	}
}

func TestMaxEventsBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.At(time.Duration(i)*time.Second, func(time.Duration) {})
	}
	if err := e.Run(0, 10); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 10 {
		t.Fatalf("fired %d, want 10", e.Fired())
	}
}

func TestNilEventIgnored(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, nil)
	if len(e.queue) != 0 {
		t.Fatal("nil event was queued")
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	e := NewEngine()
	var last time.Duration
	for i := 0; i < 50; i++ {
		d := time.Duration(50-i) * time.Second
		e.At(d, func(now time.Duration) {
			if now < last {
				t.Fatalf("clock moved backwards: %v after %v", now, last)
			}
			last = now
		})
	}
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCascadingEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		count++
		if count < 100 {
			e.After(time.Second, tick)
		}
	}
	e.After(time.Second, tick)
	if err := e.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("cascade fired %d, want 100", count)
	}
	if e.Now() != 100*time.Second {
		t.Fatalf("clock = %v, want 100s", e.Now())
	}
}

// Property: however events are scheduled, execution order is sorted by time
// with insertion-order tie-break and the engine drains completely.
func TestRunOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) > 200 {
			delaysRaw = delaysRaw[:200]
		}
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delaysRaw {
			e.At(time.Duration(d)*time.Millisecond, func(now time.Duration) {
				fired = append(fired, now)
			})
		}
		if err := e.Run(0, 0); err != nil {
			return false
		}
		if len(fired) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(e.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEngineOrderMatchesReference pins the queue's pop order against a
// sorted reference. Each seed builds a random schedule with many
// equal-time ties, events that schedule children (some in the past, so
// clamped to now) and outside schedules between runs, and drives it
// through a mix of horizon and budget returns until it drains. Every
// scheduled event sorts after the one firing when it was scheduled, so
// the whole fired sequence must equal every event ever scheduled sorted
// by (time, insertion sequence). The schedules run twice: closures only,
// then closures mixed at random with payload events of one bound handler.
func TestEngineOrderMatchesReference(t *testing.T) {
	type ref struct {
		at  time.Duration
		seq uint64
	}
	for seed := uint64(0); seed < 512; seed++ {
		mixed := seed >= 256
		rng := rand.New(rand.NewPCG(seed%256, 1))
		e := NewEngine()
		var want []ref
		var got []uint64
		var schedule func(now, at time.Duration)
		fire := func(fired time.Duration, seq uint64) {
			if fired != want[seq-1].at {
				t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, seq, fired, want[seq-1].at)
			}
			got = append(got, seq)
			for k := rng.IntN(3); k > 0 && len(want) < 400; k-- {
				// Offsets in [-5ms, 10ms]: ties, and past times clamped to now.
				schedule(fired, fired+time.Duration(rng.IntN(16)-5)*time.Millisecond)
			}
		}
		schedule = func(now, at time.Duration) {
			seq := uint64(len(want) + 1)
			want = append(want, ref{at: max(at, now), seq: seq})
			if mixed && rng.IntN(2) == 0 {
				e.Schedule(at, fire, seq)
				return
			}
			e.At(at, func(fired time.Duration) { fire(fired, seq) })
		}
		for i := 0; i < 20; i++ {
			schedule(0, time.Duration(rng.IntN(8))*time.Millisecond)
		}
		for len(e.queue) > 0 {
			if rng.IntN(2) == 0 {
				h := e.Now() + time.Duration(1+rng.IntN(10))*time.Millisecond
				if err := e.Run(h, 0); err != nil {
					t.Fatal(err)
				}
				if len(e.queue) > 0 && (e.Now() != h || e.queue[0].at <= h) {
					t.Fatalf("seed %d: horizon %v return at %v with next event at %v", seed, h, e.Now(), e.queue[0].at)
				}
			} else {
				budget := e.Fired() + uint64(1+rng.IntN(20))
				if err := e.Run(0, budget); err != nil {
					t.Fatal(err)
				}
				if len(e.queue) > 0 && e.Fired() != budget {
					t.Fatalf("seed %d: budget %d return after %d fires", seed, budget, e.Fired())
				}
			}
			if rng.IntN(4) == 0 {
				schedule(e.Now(), e.Now()-time.Duration(rng.IntN(3))*time.Millisecond)
			}
		}
		slices.SortFunc(want, func(a, b ref) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		if len(got) != len(want) || e.Stats().EventsScheduled != uint64(len(want)) {
			t.Fatalf("seed %d: fired %d of %d scheduled events", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].seq {
				t.Fatalf("seed %d: fire %d was event %d, reference order says %d", seed, i, got[i], want[i].seq)
			}
		}
	}
}
