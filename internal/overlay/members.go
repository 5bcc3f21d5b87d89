package overlay

import (
	"github.com/socialtube/socialtube/internal/dist"
)

// Members tracks the online members of one overlay with O(1) insert, delete
// and uniform random selection — the operations the tracking server performs
// when it assists joins. The zero value and a nil *Members are empty sets.
type Members struct {
	items []int
	index map[int]int
}

// Add inserts n if absent.
func (m *Members) Add(n int) {
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
func (m *Members) Remove(n int) {
	if m == nil {
		return
	}
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
// The slice is live: it is invalidated by the next Add/Remove and must not
// be mutated or retained across mutations.
func (m *Members) View() []int {
	if m == nil {
		return nil
	}
	return m.items
}

// Random returns a uniformly random member, excluding the given node. It
// returns -1 when no eligible member exists.
func (m *Members) Random(g *dist.RNG, exclude int) int {
	items := m.View()
	switch len(items) {
	case 0:
		return -1
	case 1:
		if items[0] == exclude {
			return -1
		}
		return items[0]
	}
	for attempts := 0; attempts < 8; attempts++ {
		n := items[g.Intn(len(items))]
		if n != exclude {
			return n
		}
	}
	// Deterministic fallback scan.
	for _, n := range items {
		if n != exclude {
			return n
		}
	}
	return -1
}
