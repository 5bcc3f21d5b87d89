//go:build !race

// The race build inflates allocation accounting, so this guard runs only
// without -race, as the repo's other allocation guards do.

package vod

import (
	"runtime"
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
)

// TestNewPickerAllocatesWhatItKeeps guards the picker's set-up garbage at
// sim-closed's catalog (10 000 users, the 4.4x catalog of ~106k videos).
// Growing the per-category lists and cumulative sums by append, over a
// copy of every 80 B Video, allocated 11.5 MB for the 3.6 MB it kept
// (3.2x) in 1 026 mallocs; counting each category first and building every
// table at its final size allocates 3.4 MB (1.0x) in 423. What allocations
// remain are per category and per distinct channel size (one Zipf sampler
// each), never per video.
func TestNewPickerAllocatesWhatItKeeps(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Users = 10_000
	cfg.VideoCountMultiplier = 4.4
	cfg.MaxVideosPerChannel = int(float64(cfg.MaxVideosPerChannel) * 4.4)
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	got, kept := after.TotalAlloc-before.TotalAlloc, int64(settled.HeapAlloc)-int64(before.HeapAlloc)
	if budget := kept * 5 / 4; int64(got) > budget {
		t.Errorf("NewPicker allocates %d bytes and keeps %d (%.2fx), budget 1.25x", got, kept, float64(got)/float64(kept))
	}
	sizes := 0 // distinct channel sizes: the table's non-nil entries
	for _, z := range p.zipfBySize {
		if z != nil {
			sizes++
		}
	}
	if got, budget := after.Mallocs-before.Mallocs, uint64(3*sizes+2*tr.Categories+16); got > budget {
		t.Errorf("NewPicker makes %d allocations over %d videos, budget %d (3 per channel size, 2 per category)", got, len(tr.Videos), budget)
	}
	runtime.KeepAlive(p)
}
