package overlay

import (
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
)

func TestMembersAddRemoveRandom(t *testing.T) {
	m := NewMembers()
	g := dist.NewRNG(1)
	if m.Random(g, -1) != -1 {
		t.Fatal("empty set should return -1")
	}
	m.Add(1)
	m.Add(2)
	m.Add(2) // duplicate is a no-op
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if !m.Has(1) || m.Has(3) {
		t.Fatal("membership wrong")
	}
	if got := m.Random(g, 2); got != 1 {
		t.Fatalf("random excluding 2 = %d, want 1", got)
	}
	m.Remove(1)
	if got := m.Random(g, 2); got != -1 {
		t.Fatalf("random with everything excluded = %d, want -1", got)
	}
	m.Remove(42) // unknown is a no-op
	m.Remove(2)
	if m.Len() != 0 {
		t.Fatal("set not empty after removals")
	}
}

// TestNilMembersIsEmpty: a nil *Members is the empty set, so a per-id table
// of sets allocates each entry on its first Add. It has no members, removing
// from it is a no-op, and Random finds no one without taking a draw.
func TestNilMembersIsEmpty(t *testing.T) {
	var m *Members
	if m.Len() != 0 || m.View() != nil {
		t.Fatalf("nil set: Len %d, View %v, want 0 and nil", m.Len(), m.View())
	}
	m.Remove(3)
	g, fresh := dist.NewRNG(9), dist.NewRNG(9)
	for _, exclude := range []int{-1, 0, 3} {
		if got := m.Random(g, exclude); got != -1 {
			t.Fatalf("nil set: Random(exclude %d) = %d, want -1", exclude, got)
		}
	}
	if got, want := g.Int63(), fresh.Int63(); got != want {
		t.Fatalf("Random on a nil set took a draw: next value %d, a fresh same-seed RNG gives %d", got, want)
	}
}

func TestMembersListIsCopy(t *testing.T) {
	m := NewMembers()
	m.Add(5)
	m.Add(7)
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("list = %v", list)
	}
	list[0] = 99
	if !m.Has(5) && !m.Has(7) {
		t.Fatal("mutating List() affected the set")
	}
}

func TestMembersRandomSpread(t *testing.T) {
	m := NewMembers()
	for i := 0; i < 10; i++ {
		m.Add(i)
	}
	g := dist.NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[m.Random(g, -1)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random selection covers only %d members", len(seen))
	}
}

func TestMeshFull(t *testing.T) {
	eachMesh(t, func(t *testing.T, newMesh func(max int) *Mesh) {
		m := newMesh(1)
		if m.Full(0) {
			t.Fatal("unknown node reported full")
		}
		m.Connect(0, 1)
		if !m.Full(0) || !m.Full(1) {
			t.Fatal("capacity-1 nodes should be full after one edge")
		}
	})
}
