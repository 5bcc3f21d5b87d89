package overlay

import (
	"slices"

	"github.com/socialtube/socialtube/internal/dist"
)

// Test-only views of Links, Mesh and Members: nothing outside this package's
// tests reads a link set's capacity, copies one, copies or enumerates a
// mesh, cuts a single edge, counts or copies members, or keeps a member
// set's retired map index.

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

// Len returns the member count.
func (m *Members) Len() int { return len(m.View()) }

// List returns the members in insertion-compacted order (a copy).
func (m *Members) List() []int { return slices.Clone(m.View()) }

// MapMembers is the map-indexed member set Members replaced, kept as the
// reference its equivalence test runs against: it finds a member's slot in
// its own node → slot map instead of taking it from the caller, so Add of a
// member and Remove of a non-member are no-ops.
type MapMembers struct {
	items []int
	index map[int]int
}

// Add inserts n if absent.
func (m *MapMembers) Add(n int) {
	if _, ok := m.index[n]; ok {
		return
	}
	if m.index == nil {
		m.index = make(map[int]int)
	}
	m.index[n] = len(m.items)
	m.items = append(m.items, n)
}

// Remove deletes n if present.
func (m *MapMembers) Remove(n int) {
	i, ok := m.index[n]
	if !ok {
		return
	}
	last := len(m.items) - 1
	m.items[i] = m.items[last]
	m.index[m.items[i]] = i
	m.items = m.items[:last]
	delete(m.index, n)
}

// View returns the members in insertion-compacted order without copying.
func (m *MapMembers) View() []int { return m.items }

// Random is Members.Random over the same list: the draw never read the
// index.
func (m *MapMembers) Random(g *dist.RNG, exclude int) int {
	return (&Members{items: m.items}).Random(g, exclude)
}
