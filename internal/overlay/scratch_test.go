package overlay

import (
	"testing"
	"testing/quick"
)

// TestFloodScratchMatchesFlood: the scratch-based flood and the allocating
// wrapper must produce identical results on arbitrary meshes — the
// bit-for-bit guarantee the simulator's figures rely on.
func TestFloodScratchMatchesFlood(t *testing.T) {
	scratch := NewFloodScratch(0) // deliberately undersized: must grow
	f := func(edges []uint16, ttlRaw, target uint8) bool {
		m := NewMesh(32)
		for _, e := range edges {
			m.Connect(int(e%31), int((e>>5)%31))
		}
		ttl := int(ttlRaw%4) + 1
		want := int(target % 31)
		match := func(n int) bool { return n == want }
		a := Flood(0, ttl, m.Neighbors, match)
		b := scratch.Flood(0, ttl, m.NeighborsView, match)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFloodScratchReuse: repeated floods through one scratch stay correct —
// the epoch stamp must isolate queries without clearing the visited array.
func TestFloodScratchReuse(t *testing.T) {
	m := ringMesh(10)
	s := NewFloodScratch(10)
	for i := 0; i < 100; i++ {
		res := s.Flood(0, 2, m.NeighborsView, func(n int) bool { return n == 2 })
		if !res.OK || res.Found != 2 || res.Hops != 2 {
			t.Fatalf("iteration %d: %+v", i, res)
		}
		miss := s.Flood(0, 2, m.NeighborsView, func(n int) bool { return n == 5 })
		if miss.OK {
			t.Fatalf("iteration %d: found node 5 beyond TTL: %+v", i, miss)
		}
	}
}

// TestFloodScratchEpochWrap: when the epoch counter wraps around, stale
// stamps from older floods must not masquerade as visits.
func TestFloodScratchEpochWrap(t *testing.T) {
	m := ringMesh(6)
	s := NewFloodScratch(6)
	s.visited.epoch = ^uint32(0) - 1 // two floods from wrapping
	for i := 0; i < 4; i++ {
		res := s.Flood(0, 3, m.NeighborsView, func(int) bool { return false })
		if res.Visited != 5 {
			t.Fatalf("flood %d across epoch wrap visited %d, want 5", i, res.Visited)
		}
	}
}

// TestFloodScratchRejectsNegativeOrigin documents that dense node ids are
// non-negative.
func TestFloodScratchRejectsNegativeOrigin(t *testing.T) {
	m := ringMesh(4)
	var s FloodScratch
	if res := s.Flood(-1, 2, m.NeighborsView, func(int) bool { return true }); res.OK {
		t.Fatal("negative origin should find nothing")
	}
}

// TestLinksClearReusesStorage: Clear must keep the backing array so churny
// overlays do not reallocate.
func TestLinksClearReusesStorage(t *testing.T) {
	l := NewLinks(8)
	for i := 0; i < 8; i++ {
		l.Add(i)
	}
	before := cap(l.items)
	l.Clear()
	if l.Len() != 0 {
		t.Fatal("clear left entries")
	}
	if cap(l.items) != before {
		t.Fatalf("clear reallocated backing storage: cap %d -> %d", before, cap(l.items))
	}
	if !l.Add(3) || !l.Has(3) {
		t.Fatal("links unusable after clear")
	}
}

// TestLinksViewIsLiveAndSorted pins the zero-copy read contract.
func TestLinksViewIsLiveAndSorted(t *testing.T) {
	l := NewLinks(8)
	for _, n := range []int{9, 1, 5} {
		l.Add(n)
	}
	v := l.View()
	if len(v) != 3 || v[0] != 1 || v[1] != 5 || v[2] != 9 {
		t.Fatalf("View() = %v, want [1 5 9]", v)
	}
	l.Add(3)
	v = l.View()
	if len(v) != 4 || v[1] != 3 {
		t.Fatalf("View() after Add = %v, want [1 3 5 9]", v)
	}
}

// TestMeshPrune: pruning drops exactly the edges whose neighbour fails the
// predicate, on both endpoints, and reports the examined count.
func TestMeshPrune(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(8)
		for _, b := range []int{1, 2, 3, 4, 5} {
			m.Connect(0, b)
		}
		examined := m.Prune(0, func(n int) bool { return n%2 == 0 })
		if examined != 5 {
			t.Fatalf("examined %d, want 5", examined)
		}
		for _, odd := range []int{1, 3, 5} {
			if m.Connected(0, odd) || m.Connected(odd, 0) {
				t.Fatalf("edge to %d survived prune", odd)
			}
		}
		for _, even := range []int{2, 4} {
			if !m.Connected(0, even) {
				t.Fatalf("edge to %d wrongly pruned", even)
			}
		}
		if !m.Symmetric() {
			t.Fatal("mesh asymmetric after prune")
		}
		if m.Prune(99, func(int) bool { return true }) != 0 {
			t.Fatal("pruning an unknown node examined neighbours")
		}
	})
}

// TestMeshPruneAll: removing every neighbour in one pass must not skip
// entries as the underlying slice shrinks.
func TestMeshPruneAll(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(8)
		for b := 1; b <= 6; b++ {
			m.Connect(0, b)
		}
		m.Prune(0, func(int) bool { return false })
		if m.Degree(0) != 0 {
			t.Fatalf("degree %d after pruning all, want 0", m.Degree(0))
		}
		if !m.Symmetric() {
			t.Fatal("mesh asymmetric after pruning all")
		}
	})
}
