package trace

import (
	"errors"
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
)

// subGenerator hand-builds a minimal generator: nPerCat channels in each
// of nCats categories, uniform popularity, no users or videos yet.
func subGenerator(t *testing.T, nCats, nPerCat int) *generator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Categories = nCats
	gen := &generator{
		cfg:     cfg,
		g:       dist.NewRNG(3),
		tr:      &Trace{Categories: nCats},
		byCat:   make([][]ChannelID, nCats),
		catDraw: make([]dist.Cumulative, nCats),
	}
	for c := 0; c < nCats; c++ {
		for i := 0; i < nPerCat; i++ {
			id := ChannelID(len(gen.tr.Channels))
			gen.tr.Channels = append(gen.tr.Channels, Channel{
				ID:         id,
				Primary:    CategoryID(c),
				Categories: []CategoryID{CategoryID(c)},
			})
			gen.chanPop = append(gen.chanPop, 1)
			gen.byCat[c] = append(gen.byCat[c], id)
			gen.chanDraw.Add(1)
			gen.catDraw[c].Add(1)
		}
	}
	return gen
}

// TestPickSubscriptionSingleInterest pins the single-interest path: a
// user with exactly one interest and a fully aligned draw must always
// subscribe inside that category (the 1-element Zipf is valid, not an
// error to be swallowed into a popularity-weighted global fallback).
func TestPickSubscriptionSingleInterest(t *testing.T) {
	gen := subGenerator(t, 3, 4)
	gen.cfg.InterestAlignedSubscriptionP = 1
	u := &User{Interests: []CategoryID{2}}
	for i := 0; i < 100; i++ {
		ch, err := gen.pickSubscription(u)
		if err != nil {
			t.Fatal(err)
		}
		if ch < 0 {
			t.Fatalf("draw %d: no channel picked", i)
		}
		if got := gen.tr.Channels[ch].Primary; got != 2 {
			t.Fatalf("draw %d: subscribed to category %d, want the user's single interest 2", i, got)
		}
	}
}

// TestPickSubscriptionEmptyCategoryFallsBack pins the explicit
// fallback: when no channel has the drawn category as its primary, the
// subscription comes from the global popularity-weighted draw instead.
func TestPickSubscriptionEmptyCategoryFallsBack(t *testing.T) {
	gen := subGenerator(t, 3, 4)
	gen.cfg.InterestAlignedSubscriptionP = 1
	// Empty out category 1: its channels move nowhere, the index just
	// stops listing them.
	gen.byCat[1] = nil
	u := &User{Interests: []CategoryID{1}}
	for i := 0; i < 20; i++ {
		ch, err := gen.pickSubscription(u)
		if err != nil {
			t.Fatal(err)
		}
		if ch < 0 {
			t.Fatalf("draw %d: fallback picked no channel", i)
		}
	}
}

// TestZipfForSurfacesBadParameters pins the error path that
// pickSubscription used to swallow: impossible Zipf parameters are
// reported, not silently absorbed.
func TestZipfForSurfacesBadParameters(t *testing.T) {
	gen := subGenerator(t, 2, 1)
	if _, err := gen.zipfFor(0, interestZipfS); !errors.Is(err, dist.ErrBadParameter) {
		t.Fatalf("zipfFor(0, s) error = %v, want ErrBadParameter", err)
	}
	if _, err := gen.zipfFor(5, -1); !errors.Is(err, dist.ErrBadParameter) {
		t.Fatalf("zipfFor(n, -1) error = %v, want ErrBadParameter", err)
	}
}

// TestZipfForCaches pins the sampler cache: repeated (n, s) pairs reuse
// one sampler (construction is O(n) — per-draw construction made 1M-user
// generation quadratic) and distinct pairs get distinct samplers.
func TestZipfForCaches(t *testing.T) {
	gen := subGenerator(t, 2, 1)
	a, err := gen.zipfFor(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.zipfFor(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same (n, s) returned a new sampler; cache miss")
	}
	c, err := gen.zipfFor(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different n returned the cached sampler")
	}
}
