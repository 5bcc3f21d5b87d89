// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race runs.

//go:build !race

package obs

import "testing"

// TestHistObserveAllocFree pins the histogram's allocation contract:
// the bucket window grows a handful of times while the observed range
// widens, then recording — even a million observations — allocates
// nothing (AllocsPerRun rounds the amortized growth down to 0).
func TestHistObserveAllocFree(t *testing.T) {
	var h Hist
	i := 0
	avg := testing.AllocsPerRun(100_000, func() {
		i++
		h.Add(float64(i % 10_000))
	})
	if avg != 0 {
		t.Fatalf("Hist.Add allocates %.2f allocs/op, want 0", avg)
	}
}
