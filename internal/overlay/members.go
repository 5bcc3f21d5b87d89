package overlay

import (
	"github.com/socialtube/socialtube/internal/dist"
)

// Members lists the online members of one overlay with O(1) insert, delete
// and uniform random selection — the operations the tracking server performs
// when it assists joins. It keeps no index: Add returns a member's slot, the
// caller stores it in the node state it already has, and Remove takes that
// slot back and names the member it moved, whose stored slot the caller
// updates. The zero value and a nil *Members are empty sets.
type Members struct {
	items []int
}

// Add appends n, which the caller knows is absent, and returns its slot.
func (m *Members) Add(n int) int {
	m.items = append(m.items, n)
	return len(m.items) - 1
}

// Remove deletes the member at slot i by moving the last member into it. It
// returns the moved member, now at slot i, or -1 when i was the last slot.
func (m *Members) Remove(i int) int {
	last := len(m.items) - 1
	m.items[i], m.items = m.items[last], m.items[:last]
	if i == last {
		return -1
	}
	return m.items[i]
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

// Random returns a uniformly random member, excluding the given node: up to
// eight draws, then a deterministic scan. It returns -1 when no eligible
// member exists, and draws nothing from a set of fewer than two.
func (m *Members) Random(g *dist.RNG, exclude int) int {
	items := m.View()
	for attempts := 0; len(items) > 1 && attempts < 8; attempts++ {
		if n := items[g.Intn(len(items))]; n != exclude {
			return n
		}
	}
	for _, n := range items {
		if n != exclude {
			return n
		}
	}
	return -1
}
