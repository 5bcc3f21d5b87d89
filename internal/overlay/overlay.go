// Package overlay provides the unstructured-P2P building blocks shared by
// SocialTube and the baseline protocols: bounded neighbour sets, symmetric
// link meshes and TTL-scoped flood search.
//
// Data layout: neighbour sets are small (the paper's N_l=5, N_h=10 bounds),
// so Links stores a single sorted []int instead of a map. Membership is a
// binary search, iteration is allocation-free and already in ascending
// order, and the flood hot path reads adjacency through View/NeighborsView
// without copying.
package overlay

import (
	"sort"
)

// Links is a bounded set of neighbour node ids, kept sorted ascending. The
// zero value is unusable; construct with NewLinks.
type Links struct {
	max   int
	items []int // sorted ascending
}

// NewLinks returns a neighbour set bounded to max entries (max <= 0 means
// unbounded). Small bounded sets (the common N_l/N_h case) allocate their
// full backing array up front so Add never reallocates.
func NewLinks(max int) *Links {
	l := &Links{max: max}
	if max > 0 && max <= 64 {
		l.items = make([]int, 0, max)
	}
	return l
}

// search returns the insertion index of n and whether n is present.
func (l *Links) search(n int) (int, bool) {
	i := sort.SearchInts(l.items, n)
	return i, i < len(l.items) && l.items[i] == n
}

// Add inserts a neighbour. It reports false when the set is full or the
// neighbour is already present.
func (l *Links) Add(n int) bool {
	i, ok := l.search(n)
	if ok {
		return false
	}
	if l.max > 0 && len(l.items) >= l.max {
		return false
	}
	l.items = append(l.items, 0)
	copy(l.items[i+1:], l.items[i:])
	l.items[i] = n
	return true
}

// Remove deletes a neighbour if present.
func (l *Links) Remove(n int) {
	i, ok := l.search(n)
	if !ok {
		return
	}
	l.items = append(l.items[:i], l.items[i+1:]...)
}

// Has reports whether n is a neighbour.
func (l *Links) Has(n int) bool {
	_, ok := l.search(n)
	return ok
}

// Len returns the number of neighbours.
func (l *Links) Len() int { return len(l.items) }

// Full reports whether the set is at capacity.
func (l *Links) Full() bool { return l.max > 0 && len(l.items) >= l.max }

// Max returns the capacity (0 = unbounded).
func (l *Links) Max() int { return l.max }

// List returns the neighbours in ascending order (a copy the caller owns).
func (l *Links) List() []int {
	out := make([]int, len(l.items))
	copy(out, l.items)
	return out
}

// View returns the neighbours in ascending order without copying. The slice
// is live: it is invalidated by the next Add/Remove/Clear and must not be
// mutated or retained across mutations. Use List for a stable copy.
func (l *Links) View() []int { return l.items }

// Clear removes all neighbours, reusing the backing storage.
func (l *Links) Clear() {
	l.items = l.items[:0]
}

// Mesh maintains symmetric bounded links between nodes: an edge exists on
// both endpoints or not at all, which is the paper's structure-maintenance
// invariant (neighbours probe each other and drop dead links on both sides).
type Mesh struct {
	max   int
	nodes map[int]*Links
}

// NewMesh returns a mesh whose nodes each hold at most max links
// (max <= 0 means unbounded).
func NewMesh(max int) *Mesh {
	return &Mesh{max: max, nodes: make(map[int]*Links)}
}

func (m *Mesh) links(n int) *Links {
	l, ok := m.nodes[n]
	if !ok {
		l = NewLinks(m.max)
		m.nodes[n] = l
	}
	return l
}

// Connect adds the symmetric edge (a, b). It reports false — and changes
// nothing — when a == b, the edge exists, or either endpoint is full.
func (m *Mesh) Connect(a, b int) bool {
	if a == b {
		return false
	}
	la, lb := m.links(a), m.links(b)
	if la.Has(b) || la.Full() || lb.Full() {
		return false
	}
	la.Add(b)
	lb.Add(a)
	return true
}

// Disconnect removes the symmetric edge (a, b) if present.
func (m *Mesh) Disconnect(a, b int) {
	if la, ok := m.nodes[a]; ok {
		la.Remove(b)
	}
	if lb, ok := m.nodes[b]; ok {
		lb.Remove(a)
	}
}

// Connected reports whether the edge (a, b) exists.
func (m *Mesh) Connected(a, b int) bool {
	la, ok := m.nodes[a]
	return ok && la.Has(b)
}

// Neighbors returns a's neighbours in ascending order (a copy the caller
// owns).
func (m *Mesh) Neighbors(a int) []int {
	la, ok := m.nodes[a]
	if !ok || len(la.items) == 0 {
		return nil
	}
	return la.List()
}

// NeighborsView returns a's neighbours in ascending order without copying —
// the allocation-free adjacency read the flood hot path uses. The slice is
// live: it is invalidated by the next mutation of a's links and must not be
// mutated or retained across Connect/Disconnect/RemoveNode.
func (m *Mesh) NeighborsView(a int) []int {
	la, ok := m.nodes[a]
	if !ok {
		return nil
	}
	return la.View()
}

// Degree returns the number of links a holds.
func (m *Mesh) Degree(a int) int {
	la, ok := m.nodes[a]
	if !ok {
		return 0
	}
	return la.Len()
}

// Full reports whether a cannot take more links.
func (m *Mesh) Full(a int) bool {
	la, ok := m.nodes[a]
	return ok && la.Full()
}

// RemoveNode drops a and all its edges (both directions).
func (m *Mesh) RemoveNode(a int) {
	la, ok := m.nodes[a]
	if !ok {
		return
	}
	for _, b := range la.View() {
		if lb, ok := m.nodes[b]; ok {
			lb.Remove(a)
		}
	}
	delete(m.nodes, a)
}

// Prune removes a's edges to every neighbour failing keep and reports the
// number of neighbours examined — the probe/repair primitive. It runs
// without allocating: the neighbour list is walked in descending order so
// in-place removals never shift an unvisited entry.
func (m *Mesh) Prune(a int, keep func(int) bool) int {
	la, ok := m.nodes[a]
	if !ok {
		return 0
	}
	nbs := la.View()
	examined := len(nbs)
	for i := len(nbs) - 1; i >= 0; i-- {
		b := nbs[i]
		if keep(b) {
			continue
		}
		la.Remove(b)
		if lb, ok := m.nodes[b]; ok {
			lb.Remove(a)
		}
	}
	return examined
}

// Nodes returns all node ids with at least one link record, ascending.
func (m *Mesh) Nodes() []int {
	out := make([]int, 0, len(m.nodes))
	for n := range m.nodes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Symmetric verifies the mesh invariant: every link is present on both
// endpoints. It returns true for a consistent mesh.
func (m *Mesh) Symmetric() bool {
	for a, la := range m.nodes {
		for _, b := range la.View() {
			lb, ok := m.nodes[b]
			if !ok || !lb.Has(a) {
				return false
			}
		}
	}
	return true
}

// FloodResult reports the outcome of a TTL-scoped flood search.
type FloodResult struct {
	// Found is the first node matching the predicate, in BFS order.
	Found int
	// OK reports whether any node matched.
	OK bool
	// Hops is the BFS depth at which the match was found (1 = direct
	// neighbour). Zero when no match.
	Hops int
	// Messages counts query transmissions: every edge traversal from an
	// expanded node, duplicates included — the cost the TTL exists to
	// bound.
	Messages int
	// Visited counts distinct nodes that processed the query.
	Visited int
}

// Stamps is an epoch-stamped set of node ids: Reset empties it in O(1) by
// bumping the epoch, so one set serves any number of sequential uses with
// zero steady-state allocation — the array grows to the highest id added and
// is never cleared. Every use starts with Reset, the zero value's included.
// Negative ids are not supported (node ids are dense user indices).
type Stamps struct {
	epoch uint32
	at    []uint32 // at[n] == epoch ⇔ n is in the set
}

// Reset empties the set.
func (s *Stamps) Reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, so clear all
		for i := range s.at {
			s.at[i] = 0
		}
		s.epoch = 1
	}
}

// Add inserts n and reports whether it was absent.
func (s *Stamps) Add(n int) bool {
	if n >= len(s.at) {
		grown := make([]uint32, n+1+n/2)
		copy(grown, s.at)
		s.at = grown
	} else if s.at[n] == s.epoch {
		return false
	}
	s.at[n] = s.epoch
	return true
}

// FloodScratch is reusable flood-search state: a visited set plus two
// frontier buffers, so sequential floods allocate nothing in steady state.
// The zero value is ready to use. A scratch must not be shared between
// concurrent floods.
type FloodScratch struct {
	visited  Stamps
	frontier []int
	next     []int
}

// NewFloodScratch returns a scratch pre-sized for node ids below n, so the
// first floods do not grow the visited set incrementally.
func NewFloodScratch(n int) *FloodScratch {
	if n < 0 {
		n = 0
	}
	return &FloodScratch{visited: Stamps{at: make([]uint32, n)}}
}

// Flood runs one TTL-scoped flood search reusing the scratch buffers; see
// the package-level Flood for the search semantics. Negative node ids are
// not supported (node ids are dense user indices).
func (s *FloodScratch) Flood(origin int, ttl int, neighbors func(int) []int, match func(int) bool) FloodResult {
	var res FloodResult
	if ttl <= 0 || origin < 0 || neighbors == nil || match == nil {
		return res
	}
	s.visited.Reset()
	s.visited.Add(origin)
	s.frontier = append(s.frontier[:0], origin)
	for depth := 1; depth <= ttl; depth++ {
		s.next = s.next[:0]
		for _, sender := range s.frontier {
			for _, nb := range neighbors(sender) {
				res.Messages++
				if !s.visited.Add(nb) {
					continue
				}
				res.Visited++
				if match(nb) {
					res.Found = nb
					res.OK = true
					res.Hops = depth
					return res
				}
				s.next = append(s.next, nb)
			}
		}
		s.frontier, s.next = s.next, s.frontier
		if len(s.frontier) == 0 {
			break
		}
	}
	return res
}

// Flood performs the paper's query forwarding: origin sends the query to its
// neighbours with the given TTL; each receiver that does not match forwards
// to its own neighbours while TTL remains. neighbors supplies adjacency and
// match is the "has the video" predicate. The origin itself is not matched.
//
// This wrapper allocates fresh scratch state per call; hot paths should
// hold a FloodScratch and call its Flood method instead.
func Flood(origin int, ttl int, neighbors func(int) []int, match func(int) bool) FloodResult {
	var s FloodScratch
	return s.Flood(origin, ttl, neighbors, match)
}
