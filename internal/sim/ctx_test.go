package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunCtxMatchesRun pins that cancellation support does not change
// scheduling semantics: the same event chain fires identically.
func TestRunCtxMatchesRun(t *testing.T) {
	build := func() (*Engine, *[]time.Duration) {
		e := NewEngine()
		var fired []time.Duration
		var chain func(now time.Duration)
		chain = func(now time.Duration) {
			fired = append(fired, now)
			if len(fired) < 1000 {
				e.After(time.Millisecond, chain)
			}
		}
		e.At(0, chain)
		return e, &fired
	}

	plain, plainFired := build()
	if err := plain.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	ctxed, ctxFired := build()
	if err := ctxed.RunCtx(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(*plainFired) != len(*ctxFired) {
		t.Fatalf("Run fired %d events, RunCtx fired %d", len(*plainFired), len(*ctxFired))
	}
	for i := range *plainFired {
		if (*plainFired)[i] != (*ctxFired)[i] {
			t.Fatalf("event %d fired at %v under Run, %v under RunCtx", i, (*plainFired)[i], (*ctxFired)[i])
		}
	}
	if plain.Now() != ctxed.Now() || plain.Fired() != ctxed.Fired() {
		t.Fatalf("engine state diverged: Run(now=%v fired=%d) RunCtx(now=%v fired=%d)",
			plain.Now(), plain.Fired(), ctxed.Now(), ctxed.Fired())
	}
}

func TestRunCtxHonorsHorizonAndBudget(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func(now time.Duration)
	chain = func(now time.Duration) {
		n++
		e.After(time.Second, chain)
	}
	e.At(0, chain)
	if err := e.RunCtx(context.Background(), 2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if n != 3 || e.Now() != 2*time.Second {
		t.Fatalf("horizon run fired %d events, now %v", n, e.Now())
	}
	// Resume under an event budget far past one ctx-check chunk.
	if err := e.RunCtx(context.Background(), 0, 600); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 600 {
		t.Fatalf("budget run fired %d events, want 600", e.Fired())
	}
}

// TestRunCtxCancelExactlyOnChunkBoundary pins the edge where cancellation
// lands on the ctxCheckInterval boundary itself: the event that cancels is
// the last event of a chunk, so the run must stop at exactly that fire
// count — the boundary check must not fire a single event of the next
// chunk, and the remaining schedule must survive for a later resume.
func TestRunCtxCancelExactlyOnChunkBoundary(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	for i := 1; i <= ctxCheckInterval+10; i++ {
		i := i
		e.At(time.Duration(i)*time.Millisecond, func(time.Duration) {
			fired++
			if i == ctxCheckInterval {
				cancel() // cancellation lands exactly on the chunk boundary
			}
		})
	}
	if err := e.RunCtx(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fired != ctxCheckInterval {
		t.Fatalf("fired %d events, want exactly %d (the chunk boundary)", fired, ctxCheckInterval)
	}
	if len(e.queue) != 10 {
		t.Fatalf("pending %d after boundary cancel, want 10", len(e.queue))
	}
	// The schedule stays intact: a fresh context resumes and drains.
	if err := e.RunCtx(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if fired != ctxCheckInterval+10 || len(e.queue) != 0 {
		t.Fatalf("resume after boundary cancel: fired %d pending %d", fired, len(e.queue))
	}
}

func TestRunCtxCancelled(t *testing.T) {
	e := NewEngine()
	var chain func(now time.Duration)
	chain = func(now time.Duration) { e.After(time.Millisecond, chain) }
	e.At(0, chain)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunCtx(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(e.queue) == 0 {
		t.Fatal("cancellation drained the queue; schedule should stay intact")
	}
	// Cancellation mid-run: cancel from inside an event; the run stops
	// at the next chunk boundary.
	fired := e.Fired()
	ctx2, cancel2 := context.WithCancel(context.Background())
	e.At(e.Now(), func(time.Duration) { cancel2() })
	if err := e.RunCtx(ctx2, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-run, got %v", err)
	}
	if e.Fired() == fired {
		t.Fatal("mid-run cancel fired nothing")
	}
}
