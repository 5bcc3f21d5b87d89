package ctrl

import "testing"

// Every key maps to exactly one shard in [0, shards), and the mapping is
// a pure function of (seed, shards).
func TestRingOwnershipProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		r, err := NewRing(42, shards)
		if err != nil {
			t.Fatalf("NewRing(42, %d): %v", shards, err)
		}
		r2, err := NewRing(42, shards)
		if err != nil {
			t.Fatalf("NewRing(42, %d): %v", shards, err)
		}
		for key := int64(0); key < 1000; key++ {
			s := r.Owner(key)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d key=%d: owner %d out of range", shards, key, s)
			}
			if s2 := r.Owner(key); s2 != s {
				t.Fatalf("shards=%d key=%d: owner not stable: %d then %d", shards, key, s, s2)
			}
			if s2 := r2.Owner(key); s2 != s {
				t.Fatalf("shards=%d key=%d: owner differs across identical rings: %d vs %d", shards, key, s, s2)
			}
		}
	}
}

// Rendezvous hashing should spread keys roughly evenly; with 1000 keys
// over 4 shards each shard should hold well within 2x of the fair share.
func TestRingRoughBalance(t *testing.T) {
	const shards, keys = 4, 1000
	r, err := NewRing(1, shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for key := int64(0); key < keys; key++ {
		counts[r.Owner(key)]++
	}
	for s, n := range counts {
		if n < keys/shards/2 || n > keys/shards*2 {
			t.Fatalf("shard %d holds %d of %d keys (counts %v) — badly unbalanced", s, n, keys, counts)
		}
	}
}

// Different seeds should produce different assignments (the ring is
// actually seeded, not a fixed hash).
func TestRingSeeded(t *testing.T) {
	a, _ := NewRing(1, 4)
	b, _ := NewRing(2, 4)
	diff := 0
	for key := int64(0); key < 1000; key++ {
		if a.Owner(key) != b.Owner(key) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical assignments for 1000 keys")
	}
}

func TestGossiperSchedule(t *testing.T) {
	if g := NewGossiper(1, 0, 1); g != nil {
		t.Fatal("single-replica shard should have no gossiper")
	}
	g := NewGossiper(3, 1, 4)
	if g == nil {
		t.Fatal("nil gossiper for 4 replicas")
	}
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		p := g.Next()
		if p == 1 || p < 0 || p > 3 {
			t.Fatalf("gossiper for replica 1 yielded partner %d", p)
		}
		seen[p]++
	}
	// Round-robin over 3 siblings for 9 draws: each exactly 3 times.
	for _, sib := range []int{0, 2, 3} {
		if seen[sib] != 3 {
			t.Fatalf("sibling visit counts %v, want each of {0,2,3} exactly 3 times", seen)
		}
	}
	// Same seed, same schedule.
	g2 := NewGossiper(3, 1, 4)
	g3 := NewGossiper(3, 1, 4)
	for i := 0; i < 6; i++ {
		if a, b := g2.Next(), g3.Next(); a != b {
			t.Fatalf("draw %d: same-seed gossipers disagree (%d vs %d)", i, a, b)
		}
	}
}
