package sim

import (
	"testing"
	"time"
)

// TestRunResumesAfterHorizon guards the documented contract: a horizon
// return leaves unfired events queued, and a later Run with a larger
// horizon resumes exactly where the previous call left off.
func TestRunResumesAfterHorizon(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	record := func(now time.Duration) { fired = append(fired, now) }
	e.At(1*time.Minute, record)
	e.At(3*time.Minute, record)

	if err := e.Run(2*time.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1*time.Minute {
		t.Fatalf("first run fired %v, want [1m]", fired)
	}
	if e.Now() != 2*time.Minute {
		t.Fatalf("clock %v after horizon return, want 2m", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending %d after horizon return, want 1", len(e.queue))
	}

	// Same horizon again: nothing to do, clock stays put.
	if err := e.Run(2*time.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || len(e.queue) != 1 {
		t.Fatalf("same-horizon rerun fired events: %v pending %d", fired, len(e.queue))
	}

	// Larger horizon: the queued event fires at its original time.
	if err := e.Run(4*time.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 3*time.Minute {
		t.Fatalf("resumed run fired %v, want [1m 3m]", fired)
	}
}

// TestMaxEventsIsLifetimeBudget guards the documented contract: maxEvents
// counts events fired across the engine's lifetime, so a Run whose budget
// is already met fires nothing.
func TestMaxEventsIsLifetimeBudget(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 3; i++ {
		e.At(time.Duration(i)*time.Second, func(time.Duration) { count++ })
	}
	if err := e.Run(0, 1); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("budget 1 fired %d events", count)
	}
	// Budget already exhausted: the second run must not fire the next event.
	if err := e.Run(0, 1); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("exhausted budget fired an extra event (count %d)", count)
	}
	// A raised budget resumes.
	if err := e.Run(0, 2); err != nil {
		t.Fatal(err)
	}
	if count != 2 || len(e.queue) != 1 {
		t.Fatalf("raised budget: count %d pending %d, want 2 and 1", count, len(e.queue))
	}
}

// TestBudgetReturnClockMatchesHorizon guards the clock-consistency fix:
// when the event budget runs out and every remaining event lies beyond the
// horizon, the horizon check wins and the clock advances to the horizon —
// exactly what an unbudgeted run of the same schedule reports. Before the
// fix the budget path returned first and left the clock at the last fired
// event, so the two returns disagreed about virtual time.
func TestBudgetReturnClockMatchesHorizon(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.At(5*time.Second, func(time.Duration) {})
		e.At(15*time.Second, func(time.Duration) {})
		return e
	}
	budgeted := build()
	if err := budgeted.Run(10*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	unbudgeted := build()
	if err := unbudgeted.Run(10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if budgeted.Now() != unbudgeted.Now() {
		t.Fatalf("budget return clock %v, horizon return clock %v — want identical",
			budgeted.Now(), unbudgeted.Now())
	}
	if budgeted.Now() != 10*time.Second {
		t.Fatalf("clock %v after budget+horizon return, want 10s", budgeted.Now())
	}
	// The schedule is intact and resumes exactly where it left off.
	if err := budgeted.Run(20*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	if budgeted.Fired() != 2 || budgeted.Now() != 15*time.Second {
		t.Fatalf("resume fired=%d now=%v, want 2 events with clock 15s", budgeted.Fired(), budgeted.Now())
	}
}

// TestBudgetReturnWithinHorizonKeepsClock pins the complementary case: a
// budget return with the next event still inside the horizon must NOT
// advance the clock past the last fired event — unfired events ahead of
// the clock would fire in the past on resume.
func TestBudgetReturnWithinHorizonKeepsClock(t *testing.T) {
	e := NewEngine()
	e.At(5*time.Second, func(time.Duration) {})
	e.At(6*time.Second, func(time.Duration) {})
	if err := e.Run(10*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock %v after in-horizon budget return, want 5s", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending %d, want 1", len(e.queue))
	}
}
