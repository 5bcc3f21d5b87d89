package overlay

import "slices"

// Test-only views of Links, Mesh and Members: nothing outside this package's
// tests reads a link set's capacity, copies one, copies or enumerates a
// mesh, cuts a single edge, builds a member set on the heap or lists
// members.

// Max returns the capacity.
func (l *Links) Max() int { return l.max }

// List returns the neighbours in ascending order (a copy the caller owns).
func (l *Links) List() []int { return append([]int(nil), l.items...) }

// Disconnect removes the symmetric edge (a, b) if present.
func (m *Mesh) Disconnect(a, b int) {
	m.unlink(a, b)
	m.unlink(b, a)
}

// Neighbors returns a's neighbours in ascending order (a copy the caller
// owns).
func (m *Mesh) Neighbors(a int) []int {
	if view := m.NeighborsView(a); len(view) > 0 {
		return slices.Clone(view)
	}
	return nil
}

// Nodes returns all node ids holding at least one link, ascending.
func (m *Mesh) Nodes() []int {
	var out []int
	for n := range m.deg {
		if m.Degree(n) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// Symmetric verifies the mesh invariant: every link is present on both
// endpoints. It returns true for a consistent mesh.
func (m *Mesh) Symmetric() bool {
	for _, a := range m.Nodes() {
		for _, b := range m.NeighborsView(a) {
			if !m.Connected(b, a) {
				return false
			}
		}
	}
	return true
}

// Flood is FloodScratch.Flood on fresh scratch state.
func Flood(origin int, ttl int, neighbors func(int) []int, match func(int) bool) FloodResult {
	var s FloodScratch
	return s.Flood(origin, ttl, neighbors, match)
}

// NewMembers returns an empty member set.
func NewMembers() *Members {
	return &Members{index: make(map[int]int)}
}

// Has reports membership of n.
func (m *Members) Has(n int) bool {
	_, ok := m.index[n]
	return ok
}

// Len returns the member count.
func (m *Members) Len() int { return len(m.View()) }

// List returns the members in insertion-compacted order (a copy).
func (m *Members) List() []int { return append([]int(nil), m.items...) }
