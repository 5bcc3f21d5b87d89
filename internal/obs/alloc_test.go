// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race runs.

//go:build !race

package obs

import (
	"testing"
	"time"
)

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

// TestTimelineRecordAllocFree pins the timeline hot path: once a window
// exists, Add and Observe into it allocate nothing; growth to new
// windows amortizes below one alloc per recorded point even when the
// clock sweeps hundreds of windows.
func TestTimelineRecordAllocFree(t *testing.T) {
	tl := NewTimeline(time.Second)
	req := tl.Counter("requests")
	del := tl.Hist("startupMs")
	// Warm: materialize the windows the loop below will touch.
	req.Add(512*time.Second, 0)
	del.Observe(512*time.Second, 1)
	for w := 0; w <= 512; w++ {
		del.Observe(time.Duration(w)*time.Second, 1)
	}
	i := 0
	avg := testing.AllocsPerRun(100_000, func() {
		i++
		at := time.Duration(i%512) * time.Second
		req.Add(at, 1)
		del.Observe(at, float64(i%1000))
	})
	if avg != 0 {
		t.Fatalf("timeline record path allocates %.2f allocs/op in steady state, want 0", avg)
	}
}
