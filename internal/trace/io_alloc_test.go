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
// weights built once left 6.1 MiB/op, building the catalog, the
// subscriber lists and every per-object list at their exact sizes left
// 3.2 MiB/op, and staging the catalog in pointer-free chunks instead of
// per-channel []Video blocks leaves 2.7 MiB/op. The count bound guards the
// per-user layout: four maps per user and lists grown by append made 17.1
// allocations per user, map-free draws into lists sized from the drawn
// counts made about 6, carving the lists from shared blocks made 0.8
// (1 615), and dropping the per-channel blocks makes 0.53 (1 068).
func TestGenerateAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(3<<20); got > budget {
		t.Fatalf("Generate allocates %d bytes at 2 000 users, budget %d", got, budget)
	}
	if got, budget := after.Mallocs-before.Mallocs, uint64(cfg.Users*3/5); got > budget {
		t.Fatalf("Generate makes %d allocations at %d users, budget %d (0.6 per user)", got, cfg.Users, budget)
	}
}

// TestGenerateAllocatesWhatItKeeps guards generation's set-up garbage at
// sim-closed's population (10 000 users, the 4.4x catalog of ~100k
// videos). Appending the catalog one video at a time grew its array
// 1.25x per step, and each channel's subscriber list grew by append to
// ~4.4x its final size: generation allocated 4.3x the trace it returned.
// Per-channel blocks concatenated once, subscriber lists filled in one
// counted pass and the other lists carved from shared blocks allocated
// 1.89x (22.7 MB for 12.0 MB); drawing each video into a 40 B pointer-free
// staging record and writing the catalog once allocates 1.51x (18.1 MB).
// The catalog keeps no spare capacity.
func TestGenerateAllocatesWhatItKeeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 10_000
	cfg.VideoCountMultiplier = 4.4
	cfg.MaxVideosPerChannel = int(float64(cfg.MaxVideosPerChannel) * 4.4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, kept := after.TotalAlloc-before.TotalAlloc, tr.Bytes()
	if budget := kept * 8 / 5; got > budget {
		t.Errorf("Generate allocates %d bytes for a %d-byte trace (%.2fx), budget 1.6x", got, kept, float64(got)/float64(kept))
	}
	if cap(tr.Videos) != len(tr.Videos) {
		t.Errorf("catalog holds %d videos in a %d-video array", len(tr.Videos), cap(tr.Videos))
	}
}
