package overlay

import (
	"testing"
	"testing/quick"
)

func TestLinksAddRemove(t *testing.T) {
	l := NewLinks(2)
	if !l.Add(1) || !l.Add(2) {
		t.Fatal("adds within capacity should succeed")
	}
	if l.Add(3) {
		t.Fatal("add beyond capacity should fail")
	}
	if l.Add(1) {
		t.Fatal("duplicate add should fail")
	}
	if !l.Full() || l.Len() != 2 || l.Max() != 2 {
		t.Fatal("capacity accounting wrong")
	}
	l.Remove(1)
	if l.Has(1) || l.Len() != 1 || l.Full() {
		t.Fatal("remove did not take effect")
	}
	if !l.Add(3) {
		t.Fatal("add after remove should succeed")
	}
}

func TestLinksListSortedCopy(t *testing.T) {
	l := NewLinks(8)
	for _, n := range []int{5, 1, 3} {
		l.Add(n)
	}
	got := l.List()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List() = %v, want %v", got, want)
		}
	}
	got[0] = 99
	if !l.Has(1) {
		t.Fatal("mutating List() result affected the set")
	}
}

func TestLinksClear(t *testing.T) {
	l := NewLinks(3)
	l.Add(1)
	l.Clear()
	if l.Len() != 0 || l.Has(1) {
		t.Fatal("clear left residue")
	}
}

// eachMesh runs a Mesh test over both constructions: NewMesh, grown to the
// ids it is handed (subtest "keyed"), and dense over a population that
// covers every node id the tests use.
func eachMesh(t *testing.T, test func(t *testing.T, newMesh func(max int) *Mesh)) {
	t.Run("keyed", func(t *testing.T) { test(t, NewMesh) })
	t.Run("dense", func(t *testing.T) {
		test(t, func(max int) *Mesh { return NewDenseMesh(max, 128) })
	})
}

func TestMeshConnectSymmetric(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(5)
		if !m.Connect(1, 2) {
			t.Fatal("connect failed")
		}
		if !m.Connected(1, 2) || !m.Connected(2, 1) {
			t.Fatal("edge not symmetric")
		}
		if m.Connect(1, 2) {
			t.Fatal("duplicate edge should fail")
		}
		if m.Connect(1, 1) {
			t.Fatal("self edge should fail")
		}
	})
}

func TestMeshCapacityRespected(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(2)
		if !m.Connect(0, 1) || !m.Connect(0, 2) {
			t.Fatal("connects within capacity failed")
		}
		if m.Connect(0, 3) {
			t.Fatal("connect beyond node 0's capacity succeeded")
		}
		// Node 3 is empty but node 0 is full, so the edge must not appear on
		// either side.
		if m.Degree(3) != 0 {
			t.Fatal("one-sided edge created")
		}
		if !m.Symmetric() {
			t.Fatal("mesh asymmetric")
		}
	})
}

func TestMeshDisconnect(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(8)
		m.Connect(1, 2)
		m.Disconnect(1, 2)
		if m.Connected(1, 2) || m.Connected(2, 1) {
			t.Fatal("disconnect left an edge")
		}
		// Disconnecting a non-edge is a no-op.
		m.Disconnect(7, 8)
	})
}

func TestMeshRemoveNode(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(8)
		m.Connect(1, 2)
		m.Connect(1, 3)
		m.RemoveNode(1)
		if m.Degree(1) != 0 || m.Connected(2, 1) || m.Connected(3, 1) {
			t.Fatal("remove node left dangling links")
		}
		if !m.Symmetric() {
			t.Fatal("asymmetric after node removal")
		}
		m.RemoveNode(99) // unknown node is a no-op
	})
}

func TestMeshNeighborsAndNodes(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(8)
		m.Connect(2, 5)
		m.Connect(2, 3)
		nbs := m.Neighbors(2)
		if len(nbs) != 2 || nbs[0] != 3 || nbs[1] != 5 {
			t.Fatalf("Neighbors = %v, want [3 5]", nbs)
		}
		if m.Neighbors(42) != nil {
			t.Fatal("unknown node should have nil neighbours")
		}
		nodes := m.Nodes()
		if len(nodes) != 3 {
			t.Fatalf("Nodes = %v, want 3 entries", nodes)
		}
	})
}

// Property: after arbitrary connect/disconnect/remove operations, the mesh
// stays symmetric and respects its per-node capacity.
func TestMeshInvariantsProperty(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		type op struct {
			Kind uint8
			A, B uint8
		}
		f := func(ops []op, capRaw uint8) bool {
			capacity := int(capRaw%6) + 1
			m := newMesh(capacity)
			for _, o := range ops {
				a, b := int(o.A%20), int(o.B%20)
				switch o.Kind % 3 {
				case 0:
					m.Connect(a, b)
				case 1:
					m.Disconnect(a, b)
				case 2:
					m.RemoveNode(a)
				}
			}
			if !m.Symmetric() {
				return false
			}
			for _, n := range m.Nodes() {
				if m.Degree(n) > capacity {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

func ringMesh(n int) *Mesh {
	m := NewMesh(8)
	for i := 0; i < n; i++ {
		m.Connect(i, (i+1)%n)
	}
	return m
}

func TestFloodFindsWithinTTL(t *testing.T) {
	m := ringMesh(10)
	res := Flood(0, 2, m.Neighbors, func(n int) bool { return n == 2 })
	if !res.OK || res.Found != 2 {
		t.Fatalf("flood missed node 2: %+v", res)
	}
	if res.Hops != 2 {
		t.Fatalf("hops = %d, want 2", res.Hops)
	}
}

func TestFloodRespectsTTL(t *testing.T) {
	m := ringMesh(10)
	res := Flood(0, 2, m.Neighbors, func(n int) bool { return n == 5 })
	if res.OK {
		t.Fatalf("node 5 is 5 hops away, found within TTL 2: %+v", res)
	}
}

func TestFloodDirectNeighborIsOneHop(t *testing.T) {
	m := ringMesh(10)
	res := Flood(0, 2, m.Neighbors, func(n int) bool { return n == 1 })
	if !res.OK || res.Hops != 1 {
		t.Fatalf("direct neighbour: %+v", res)
	}
}

func TestFloodOriginNotMatched(t *testing.T) {
	m := ringMesh(5)
	res := Flood(0, 3, m.Neighbors, func(n int) bool { return n == 0 })
	if res.OK {
		t.Fatal("flood matched its own origin")
	}
}

func TestFloodNoDuplicateVisits(t *testing.T) {
	// Dense mesh: many redundant edges, but each node processes the query
	// once.
	m := NewMesh(8)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			m.Connect(i, j)
		}
	}
	res := Flood(0, 3, m.Neighbors, func(int) bool { return false })
	if res.Visited != 5 {
		t.Fatalf("visited %d distinct nodes, want 5", res.Visited)
	}
	if res.Messages < 5 {
		t.Fatalf("messages %d, want at least one per neighbour", res.Messages)
	}
}

func TestFloodDegenerateInputs(t *testing.T) {
	m := ringMesh(5)
	if res := Flood(0, 0, m.Neighbors, func(int) bool { return true }); res.OK {
		t.Fatal("zero TTL should find nothing")
	}
	if res := Flood(0, 2, nil, func(int) bool { return true }); res.OK {
		t.Fatal("nil neighbours should find nothing")
	}
	if res := Flood(0, 2, m.Neighbors, nil); res.OK {
		t.Fatal("nil match should find nothing")
	}
}

// Property: flood never revisits a node, never exceeds its hop budget, and
// message count is bounded by edges reachable within TTL.
func TestFloodInvariantsProperty(t *testing.T) {
	f := func(edges []uint16, ttlRaw, target uint8) bool {
		m := NewMesh(32)
		for _, e := range edges {
			a, b := int(e%31), int((e>>5)%31)
			m.Connect(a, b)
		}
		ttl := int(ttlRaw%4) + 1
		want := int(target % 31)
		res := Flood(0, ttl, m.Neighbors, func(n int) bool { return n == want })
		if res.OK && (res.Hops < 1 || res.Hops > ttl) {
			return false
		}
		if res.OK && res.Found != want {
			return false
		}
		return res.Visited <= 31
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDenseMeshOutsidePopulation: a dense mesh reads ids outside 0..n-1 (the
// -1 requester of a cross-cell lookup) as linkless and never links them.
func TestDenseMeshOutsidePopulation(t *testing.T) {
	m := NewDenseMesh(3, 4)
	for _, out := range []int{-1, 4, 1 << 30} {
		if m.Connect(0, out) || m.Connect(out, 0) {
			t.Fatalf("connected node %d outside the population", out)
		}
		if m.Degree(out) != 0 || m.NeighborsView(out) != nil || m.Full(out) || m.Connected(out, 0) {
			t.Fatalf("node %d outside the population reads as linked", out)
		}
		m.RemoveNode(out)
		m.Prune(out, func(int) bool { return false })
	}
	if m.Degree(0) != 0 {
		t.Fatal("a refused connect left a one-sided edge")
	}
}

// TestZeroBoundHoldsNothing: a bound of 0 is a budget of no links — what
// core's N_h = 0 ablation asks of its inter mesh — on a bare set and on
// both mesh constructions.
func TestZeroBoundHoldsNothing(t *testing.T) {
	if l := NewLinks(0); l.Add(1) || !l.Full() {
		t.Fatal("zero-bound links took a neighbour")
	}
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(0)
		if m.Connect(0, 1) || m.Degree(0) != 0 || m.Degree(1) != 0 || !m.Full(0) {
			t.Fatal("zero-bound mesh linked a pair")
		}
	})
}

// TestDenseMeshNeverAllocates: every link array is carved at construction,
// so connect/prune/remove churn allocates nothing.
func TestDenseMeshNeverAllocates(t *testing.T) {
	const n = 64
	m := NewDenseMesh(5, n)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		a := i % n
		m.Connect(a, (a*7+i)%n)
		m.Connect(a, (a*13+i)%n)
		if i%3 == 0 {
			m.RemoveNode((a + 1) % n)
		}
		m.Prune(a, func(b int) bool { return b%2 == 0 })
	}); avg != 0 {
		t.Fatalf("dense mesh churn allocates %.0f allocs/op, want 0", avg)
	}
}
