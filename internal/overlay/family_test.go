package overlay

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestFamilyMatchesMeshPerKey drives a Family and one keyed Mesh per key
// through the same seeded random Connect/Prune/RemoveNode sequence and
// requires every return value and, after each operation, every node's
// neighbours, degree and fullness to agree, with both sides symmetric, and
// each node's Slot walk to list its overlays in key order with the same
// neighbours.
func TestFamilyMatchesMeshPerKey(t *testing.T) {
	const nodes, keys, max, steps = 50, 4, 3, 4000
	for seed := uint64(1); seed <= 3; seed++ {
		g := rand.New(rand.NewPCG(seed, 0))
		f := NewFamily[int](max, nodes)
		meshes := make([]*Mesh, keys)
		for k := range meshes {
			meshes[k] = NewMesh(max)
		}
		dead := make([]bool, nodes)
		keep := func(n int) bool { return !dead[n] }
		for step := 0; step < steps; step++ {
			k, a := g.IntN(keys), g.IntN(nodes)
			switch op := g.IntN(10); {
			case op < 7:
				b := g.IntN(nodes)
				if got, want := f.Connect(k, a, b), meshes[k].Connect(a, b); got != want {
					t.Fatalf("seed %d step %d: Connect(%d, %d, %d) = %v, mesh %v", seed, step, k, a, b, got, want)
				}
			case op < 9:
				for n := range dead {
					dead[n] = g.IntN(5) == 0
				}
				before := meshes[k].Degree(a)
				examined, removed := f.Prune(k, a, keep)
				want := meshes[k].Prune(a, keep)
				if examined != want || removed != before-meshes[k].Degree(a) {
					t.Fatalf("seed %d step %d: Prune(%d, %d) = (%d, %d), mesh examined %d and removed %d",
						seed, step, k, a, examined, removed, want, before-meshes[k].Degree(a))
				}
			default:
				f.RemoveNode(k, a)
				meshes[k].RemoveNode(a)
			}
			for key, m := range meshes {
				if !m.Symmetric() {
					t.Fatalf("seed %d step %d: mesh %d lost symmetry", seed, step, key)
				}
				for n := 0; n < nodes; n++ {
					got, want := f.NeighborsView(key, n), m.NeighborsView(n)
					if !slices.Equal(got, want) || f.Full(key, n) != m.Full(n) {
						t.Fatalf("seed %d step %d: key %d node %d: family %v (full %v), mesh %v (full %v)",
							seed, step, key, n, got, f.Full(key, n), want, m.Full(n))
					}
					for _, b := range got {
						if !slices.Contains(f.NeighborsView(key, b), n) {
							t.Fatalf("seed %d step %d: key %d edge %d-%d is one-sided", seed, step, key, n, b)
						}
					}
				}
			}
			for n := 0; n < nodes; n++ {
				held, slots := 0, 0
				for ; ; slots++ {
					key, nbs, ok := f.Slot(n, slots)
					if !ok {
						break
					}
					if prev, _, _ := f.Slot(n, slots-1); slots > 0 && key <= prev || !slices.Equal(nbs, meshes[key].NeighborsView(n)) {
						t.Fatalf("seed %d step %d: node %d slot %d (key %d) = %v, out of order or unlike the mesh",
							seed, step, n, slots, key, nbs)
					}
				}
				for _, m := range meshes {
					if m.Degree(n) > 0 {
						held++
					}
				}
				if slots < held {
					t.Fatalf("seed %d step %d: node %d has %d slots for %d linked overlays", seed, step, n, slots, held)
				}
			}
		}
	}
}

// TestFamilyBounds: ids outside the population and a zero bound link
// nothing, and reads of an overlay nobody joined are empty.
func TestFamilyBounds(t *testing.T) {
	f := NewFamily[int](2, 4)
	for _, e := range [][2]int{{0, 0}, {-1, 1}, {1, 4}, {4, 1}} {
		if f.Connect(7, e[0], e[1]) {
			t.Fatalf("Connect(7, %d, %d) linked", e[0], e[1])
		}
	}
	if f.NeighborsView(7, 9) != nil || func() bool { _, _, ok := f.Slot(9, 0); return ok }() || f.Full(7, -1) || f.NeighborsView(3, 0) != nil {
		t.Fatal("reads outside the population or of an unjoined overlay are not empty")
	}
	f.RemoveNode(7, 9)
	if e, r := f.Prune(7, 9, func(int) bool { return false }); e != 0 || r != 0 {
		t.Fatalf("Prune outside the population = (%d, %d)", e, r)
	}
	if NewFamily[int](0, 4).Connect(1, 0, 1) {
		t.Fatal("a zero bound linked")
	}
}
