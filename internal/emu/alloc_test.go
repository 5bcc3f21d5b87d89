// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race
// runs — same convention as internal/sim/alloc_test.go.

//go:build !race

package emu

import "testing"

// TestFrameDrawAllocFree pins the per-frame loss and chaos draws as
// stateless: Drop runs on every admitted frame, so it must not build a
// random source per call.
func TestFrameDrawAllocFree(t *testing.T) {
	c := &Conditions{Seed: 3, LossP: 0.5}
	c.SetChaos(&ChaosMix{CorruptP: 0.1})
	avg := testing.AllocsPerRun(10_000, func() {
		if c.Drop() {
			dropSink++
		}
		if act, _ := c.nextChaos(); act != chaosNone {
			dropSink++
		}
	})
	if avg != 0 {
		t.Fatalf("a frame's draws allocate %.2f allocs/op, want 0", avg)
	}
}

// dropSink keeps the compiler from eliding the measured calls.
var dropSink int
