package overlay

import (
	"slices"
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
)

func TestMembersAddRemoveRandom(t *testing.T) {
	var m Members
	g := dist.NewRNG(1)
	if m.Random(g, -1) != -1 {
		t.Fatal("empty set should return -1")
	}
	if at := m.Add(1); at != 0 {
		t.Fatalf("first Add returned slot %d, want 0", at)
	}
	if at := m.Add(2); at != 1 {
		t.Fatalf("second Add returned slot %d, want 1", at)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if view := m.View(); !slices.Contains(view, 1) || slices.Contains(view, 3) {
		t.Fatal("membership wrong")
	}
	if got := m.Random(g, 2); got != 1 {
		t.Fatalf("random excluding 2 = %d, want 1", got)
	}
	if moved := m.Remove(0); moved != 2 || m.View()[0] != 2 {
		t.Fatalf("removing slot 0 moved %d into it (view %v), want 2", moved, m.View())
	}
	if got := m.Random(g, 2); got != -1 {
		t.Fatalf("random with everything excluded = %d, want -1", got)
	}
	if moved := m.Remove(0); moved != -1 {
		t.Fatalf("removing the last slot moved %d, want -1", moved)
	}
	if m.Len() != 0 {
		t.Fatal("set not empty after removals")
	}
}

// TestNilMembersIsEmpty: a nil *Members is the empty set, so a per-id table
// of sets allocates each entry on its first Add. It has no members and
// Random finds no one without taking a draw.
func TestNilMembersIsEmpty(t *testing.T) {
	var m *Members
	if m.Len() != 0 || m.View() != nil {
		t.Fatalf("nil set: Len %d, View %v, want 0 and nil", m.Len(), m.View())
	}
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
	var m Members
	m.Add(5)
	m.Add(7)
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("list = %v", list)
	}
	list[0] = 99
	if !slices.Equal(m.View(), []int{5, 7}) {
		t.Fatalf("mutating List() changed the set to %v", m.View())
	}
}

func TestMembersRandomSpread(t *testing.T) {
	var m Members
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

// TestMembersMatchMapModel runs Members, with each member's slot held
// outside the set as the protocols hold it, in lockstep with the retired
// map-indexed MapMembers over 256 seeded random sequences of add, remove and
// Random on several sets: half with exclusive membership (a node in at most
// one set, as SocialTube's home channel and PA-VoD's watched video), half
// with a node in many (as NetTube's per-video sets). After every step each
// set's View must equal the reference's, in order, every held slot must
// point at its member, and Random on two same-seed generators must return
// the same member.
func TestMembersMatchMapModel(t *testing.T) {
	const sets, nodes, steps = 4, 24, 300
	for seed := int64(1); seed <= 256; seed++ {
		exclusive := seed%2 == 0
		g := dist.NewRNG(seed)
		got, want := make([]Members, sets), make([]MapMembers, sets)
		// slot[s][n] is n's slot in set s, -1 when absent: the node
		// state a protocol keeps.
		slot := make([][]int, sets)
		for s := range slot {
			slot[s] = make([]int, nodes)
			for n := range slot[s] {
				slot[s][n] = -1
			}
		}
		remove := func(s, n int) {
			if at := slot[s][n]; at >= 0 {
				if moved := got[s].Remove(at); moved >= 0 {
					slot[s][moved] = at
				}
				slot[s][n] = -1
			}
			want[s].Remove(n)
		}
		for step := 0; step < steps; step++ {
			s, n := g.Intn(sets), g.Intn(nodes)
			switch op := g.Intn(10); {
			case op < 5:
				if exclusive { // moving to another set leaves the old one
					for other := range slot {
						if other != s {
							remove(other, n)
						}
					}
				}
				if slot[s][n] < 0 {
					slot[s][n] = got[s].Add(n)
				}
				want[s].Add(n)
			case op < 8:
				remove(s, n)
			default:
				exclude := g.Intn(nodes+1) - 1
				draws := g.Int63()
				if a, b := got[s].Random(dist.NewRNG(draws), exclude), want[s].Random(dist.NewRNG(draws), exclude); a != b {
					t.Fatalf("seed %d step %d: Random(set %d, exclude %d) = %d, reference %d", seed, step, s, exclude, a, b)
				}
			}
			for s := range got {
				if !slices.Equal(got[s].View(), want[s].View()) {
					t.Fatalf("seed %d step %d: set %d = %v, reference %v", seed, step, s, got[s].View(), want[s].View())
				}
				for at, n := range got[s].View() {
					if slot[s][n] != at {
						t.Fatalf("seed %d step %d: node %d held slot %d in set %d, sits at %d", seed, step, n, slot[s][n], s, at)
					}
				}
			}
		}
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
