package overlay

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// setModel is a bounded symmetric mesh as a map of neighbour sets: the
// independent statement of Mesh's contract the test below checks it
// against, sharing none of its code.
type setModel struct {
	bound, limit int
	links        map[int]map[int]bool
}

func (s *setModel) connect(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= s.limit || b >= s.limit ||
		len(s.links[a]) >= s.bound || len(s.links[b]) >= s.bound || s.links[a][b] {
		return false
	}
	for _, e := range [][2]int{{a, b}, {b, a}} {
		if s.links[e[0]] == nil {
			s.links[e[0]] = map[int]bool{}
		}
		s.links[e[0]][e[1]] = true
	}
	return true
}

func (s *setModel) cut(a, b int) {
	delete(s.links[a], b)
	delete(s.links[b], a)
}

// sorted returns a's neighbours ascending.
func (s *setModel) sorted(a int) []int {
	var out []int
	for b := range s.links[a] {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// TestMeshMatchesSetModel drives a grown and a dense mesh and the set model
// through the same seeded random Connect/Prune/RemoveNode sequence, with
// ids -1 and n (one past the dense population) in the draw, and requires
// every return value to agree and, after every step, every node's degree,
// neighbour order and fullness to match the model's and every edge to be
// symmetric; -1, the dense mesh's n and 1<<30 stay unlinked.
func TestMeshMatchesSetModel(t *testing.T) {
	const nodes, bound, steps = 50, 3, 4000
	for name, limit := range map[string]int{"grown": math.MaxInt, "dense": nodes} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := rand.New(rand.NewPCG(seed, 0))
			m := NewDenseMesh(bound, nodes)
			if name == "grown" {
				m = NewMesh(bound)
			}
			model := &setModel{bound: bound, limit: limit, links: map[int]map[int]bool{}}
			dead := make(map[int]bool)
			keep := func(n int) bool { return !dead[n] }
			id := func() int { return g.IntN(nodes+2) - 1 } // -1..nodes
			for step := 0; step < steps; step++ {
				switch a, op := id(), g.IntN(10); {
				case op < 7:
					b := id()
					if got, want := m.Connect(a, b), model.connect(a, b); got != want {
						t.Fatalf("%s seed %d step %d: Connect(%d, %d) = %v, model %v", name, seed, step, a, b, got, want)
					}
				case op < 9:
					clear(dead)
					for n := -1; n <= nodes; n++ {
						dead[n] = g.IntN(5) == 0
					}
					want := model.sorted(a)
					for _, b := range want {
						if dead[b] {
							model.cut(a, b)
						}
					}
					if got := m.Prune(a, keep); got != len(want) {
						t.Fatalf("%s seed %d step %d: Prune(%d) examined %d, model degree %d", name, seed, step, a, got, len(want))
					}
				default:
					for _, b := range model.sorted(a) {
						model.cut(a, b)
					}
					m.RemoveNode(a)
				}
				for n := -1; n <= nodes; n++ {
					got, want := m.NeighborsView(n), model.sorted(n)
					full := n >= 0 && n < limit && len(want) >= bound
					if !slices.Equal(got, want) || m.Degree(n) != len(want) || m.Full(n) != full {
						t.Fatalf("%s seed %d step %d: node %d: mesh %v (degree %d, full %v), model %v (full %v)",
							name, seed, step, n, got, m.Degree(n), m.Full(n), want, full)
					}
					for _, b := range got {
						if !m.Connected(b, n) {
							t.Fatalf("%s seed %d step %d: edge %d-%d is one-sided", name, seed, step, n, b)
						}
					}
				}
				if m.Degree(1<<30) != 0 || m.NeighborsView(1<<30) != nil || m.Full(1<<30) {
					t.Fatalf("%s seed %d step %d: id 1<<30 reads as linked", name, seed, step)
				}
			}
		}
	}
}

// TestMeshBoundFitsDegree: a bound the one-byte degree cannot count is
// refused at construction, and the largest it can is reached without wrap.
func TestMeshBoundFitsDegree(t *testing.T) {
	for name, build := range map[string]func(){
		"NewMesh":      func() { NewMesh(MaxLinks + 1) },
		"NewDenseMesh": func() { NewDenseMesh(MaxLinks+1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted bound %d", name, MaxLinks+1)
				}
			}()
			build()
		}()
	}
	m := NewDenseMesh(MaxLinks, MaxLinks+2)
	for b := 1; b <= MaxLinks+1; b++ {
		if got, want := m.Connect(0, b), b <= MaxLinks; got != want {
			t.Fatalf("Connect(0, %d) = %v, want %v", b, got, want)
		}
	}
	if m.Degree(0) != MaxLinks || !m.Full(0) || m.NeighborsView(0)[MaxLinks-1] != MaxLinks {
		t.Fatalf("hub holds %d links (full %v), want %d", m.Degree(0), m.Full(0), MaxLinks)
	}
}
