// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race
// runs — same convention as internal/core/alloc_test.go.

//go:build !race

package sim

import (
	"testing"
	"time"
)

// TestEngineSteadyStateAllocFree pins the event loop's allocation cost:
// once a run reaches steady state (queue length oscillating around a
// plateau), scheduling and firing allocate nothing, because the queue
// holds events by value in a slice that has already grown. Each measured
// iteration fires exactly one event which reschedules exactly one.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	var chain func(now time.Duration)
	chain = func(now time.Duration) { e.After(time.Millisecond, chain) }
	e.At(0, chain)
	// Warm up past the heap's one-time growth.
	if err := e.Run(0, 64); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := e.Run(0, e.Fired()+1); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Fatalf("steady-state event loop allocates %.2f allocs/op, want <1", avg)
	}
	// The same chain as payload events of a handler bound once: nothing
	// at all.
	e = NewEngine()
	var next Handler
	next = func(now time.Duration, n uint64) { e.Schedule(now+time.Millisecond, next, n+1) }
	e.Schedule(0, next, 0)
	if err := e.Run(0, 64); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(2000, func() {
		if err := e.Run(0, e.Fired()+1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state payload events allocate %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkEngineSteadyState measures the steady-state event loop: one
// fire plus one reschedule per iteration. The b.ReportAllocs output sits
// next to the wall-clock number: the loop allocates nothing.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	var chain func(now time.Duration)
	chain = func(now time.Duration) { e.After(time.Millisecond, chain) }
	e.At(0, chain)
	if err := e.Run(0, 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(0, e.Fired()+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBurst measures a bursty pattern — schedule a batch, drain
// it — after the first burst has sized the heap.
func BenchmarkEngineBurst(b *testing.B) {
	e := NewEngine()
	nop := func(time.Duration) {}
	// First burst sizes the heap.
	for i := 0; i < 256; i++ {
		e.After(time.Duration(i)*time.Microsecond, nop)
	}
	if err := e.Run(0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			e.After(time.Duration(j)*time.Microsecond, nop)
		}
		if err := e.Run(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
