//go:build !race

// The heap-budget guard is skipped under the race detector (ci.sh runs
// -race), whose instrumentation inflates allocation accounting — the
// same convention as the other alloc guards in this repo.

package trace

import (
	"bytes"
	"runtime"
	"testing"
)

// TestLoadStreamHeapBudget guards the dense layout's reason to exist:
// a streamed trace's live heap must stay close to its deterministic
// Bytes() accounting (one struct array per kind plus four arenas), not
// balloon with per-object allocations. The 2x budget leaves room for
// allocator rounding and map/bookkeeping slack while still failing if
// the loader regresses to pointer-heavy per-object slices.
func TestLoadStreamHeapBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 23
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveStream(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Two collections settle finalizer-held and lazily-swept garbage
	// from generation before the baseline is read.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	loaded, err := LoadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	accounted := loaded.Bytes()
	if got, want := accounted, tr.Bytes(); got != want {
		t.Fatalf("Bytes() not deterministic across load: %d, want %d", got, want)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if budget := int64(2 * accounted); live > budget {
		t.Fatalf("loaded trace holds %d bytes live, budget %d (2x accounted %d)", live, budget, accounted)
	}
	runtime.KeepAlive(loaded)
}

// TestGenerateAllocBudget guards the subscription draws: they used to
// build a channel-id slice and a weight slice per draw (28.9 MB/op at
// 2 000 users, three quarters of it from those two slices); drawing from
// weights built once leaves ~7.4 MB/op.
func TestGenerateAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(10<<20); got > budget {
		t.Fatalf("Generate allocates %d bytes at 2 000 users, budget %d", got, budget)
	}
}
