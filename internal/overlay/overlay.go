// Package overlay provides the unstructured-P2P building blocks shared by
// SocialTube and the baseline protocols: bounded neighbour sets, symmetric
// link meshes and TTL-scoped flood search. Neighbour sets are small (the
// paper's N_l=5, N_h=10 bounds), so each is a sorted []int, never a map:
// membership is a search of a short list and iteration is allocation-free
// and ascending. Links, Mesh and Family each describe their layout.
package overlay

import (
	"fmt"
	"math"
	"slices"
)

// Links is a bounded set of neighbour node ids, kept sorted ascending. The
// zero value is unusable; construct with NewLinks.
type Links struct {
	max   int
	items []int // sorted ascending
}

// NewLinks returns a neighbour set bounded to max entries (max <= 0 holds
// nothing). Small sets (the common N_l/N_h case) allocate their full backing
// array up front so Add never reallocates.
func NewLinks(max int) *Links {
	l := &Links{max: max}
	if max > 0 && max <= 64 {
		l.items = make([]int, 0, max)
	}
	return l
}

// Add inserts a neighbour. It reports false when the set is full or the
// neighbour is already present.
func (l *Links) Add(n int) bool {
	i, ok := find(l.items, n)
	if ok || len(l.items) >= l.max {
		return false
	}
	l.items = slices.Insert(l.items, i, n)
	return true
}

// Remove deletes a neighbour if present.
func (l *Links) Remove(n int) {
	if i, ok := find(l.items, n); ok {
		l.items = slices.Delete(l.items, i, i+1)
	}
}

// Has reports whether n is a neighbour.
func (l *Links) Has(n int) bool {
	_, ok := find(l.items, n)
	return ok
}

// Full reports whether the set is at capacity.
func (l *Links) Full() bool { return len(l.items) >= l.max }

// Len returns the number of neighbours held.
func (l *Links) Len() int { return len(l.items) }

// View returns the neighbours in ascending order without copying. The slice
// is live: it is invalidated by the next Add/Remove/Clear and must not be
// mutated or retained across them.
func (l *Links) View() []int { return l.items }

// Clear removes all neighbours, reusing the backing storage.
func (l *Links) Clear() { l.items = l.items[:0] }

// Mesh maintains symmetric bounded links between nodes: an edge exists on
// both endpoints or not at all, which is the paper's structure-maintenance
// invariant (neighbours probe each other and drop dead links on both sides).
//
// A mesh is two node-indexed arrays: deg[n], node n's link count in one
// byte, and an arena whose n*max..n*max+deg[n] range holds n's neighbours
// ascending. Full, Degree and Connect's budget check read one byte, and the
// flood's adjacency read one slice of the arena: no per-node header, no
// per-node allocation. NewDenseMesh sizes both arrays for a known
// population; NewMesh grows them to the largest id it links.
type Mesh struct {
	max   int
	limit int     // ids 0..limit-1 can be linked
	deg   []uint8 // ids at or past len(deg) hold no links
	arena []int
}

// MaxLinks is the largest per-node link bound a Mesh holds: its degree
// counts fit one byte.
const MaxLinks = math.MaxUint8

// newMesh returns a mesh whose nodes each hold at most bound links, over
// ids below limit, with room for the first n of them. A bound past MaxLinks
// is a caller's bug (configurations validate against it), so it panics.
func newMesh(bound, limit, n int) *Mesh {
	if bound > MaxLinks {
		panic(fmt.Sprintf("overlay: link bound %d exceeds MaxLinks", bound))
	}
	bound = max(bound, 0)
	return &Mesh{max: bound, limit: limit, deg: make([]uint8, n), arena: make([]int, n*bound)}
}

// NewMesh returns a mesh whose nodes each hold at most bound links; its
// arrays grow to the largest node id it links. Node ids are dense user
// indices: a negative id is never linked.
func NewMesh(bound int) *Mesh { return newMesh(bound, math.MaxInt, 0) }

// NewDenseMesh returns a mesh over node ids 0..n-1, each holding at most
// bound links, with every link array allocated here, once. Ids outside the
// population are never linked.
func NewDenseMesh(bound, n int) *Mesh { return newMesh(bound, n, n) }

// grow extends the arrays to hold node n.
func (m *Mesh) grow(n int) {
	if n < len(m.deg) {
		return
	}
	size := min(n+1+n/2, m.limit)
	m.deg = append(m.deg, make([]uint8, size-len(m.deg))...)
	m.arena = append(m.arena, make([]int, size*m.max-len(m.arena))...)
}

// Connect adds the symmetric edge (a, b). It reports false — and changes
// no link — when a == b, the edge exists, either endpoint is full, or an
// endpoint is an id the mesh never links. One search of each endpoint's
// list gives both the edge test and the insertion index.
func (m *Mesh) Connect(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= m.limit || b >= m.limit {
		return false
	}
	m.grow(max(a, b))
	la, lb := m.NeighborsView(a), m.NeighborsView(b)
	i, ok := find(la, b)
	if ok || len(la) >= m.max || len(lb) >= m.max {
		return false
	}
	j, _ := find(lb, a)
	m.deg[a], m.deg[b] = uint8(insert(la, i, b)), uint8(insert(lb, j, a))
	return true
}

// find returns the index of n in the ascending list l, or where n would be
// inserted, and whether it is there. Neighbour lists are short: it scans.
func find(l []int, n int) (int, bool) {
	for i, x := range l {
		if x >= n {
			return i, x == n
		}
	}
	return len(l), false
}

// insert puts n at index i of l, which has room, and returns l's new length.
func insert(l []int, i, n int) int {
	l = l[:len(l)+1]
	for k := len(l) - 1; k > i; k-- {
		l[k] = l[k-1]
	}
	l[i] = n
	return len(l)
}

// Connected reports whether the edge (a, b) exists.
func (m *Mesh) Connected(a, b int) bool {
	_, ok := find(m.NeighborsView(a), b)
	return ok
}

// NeighborsView returns a's neighbours in ascending order without copying —
// the allocation-free adjacency read the flood hot path uses. The slice is
// live: it is invalidated by the next mutation of a's links and must not be
// mutated or retained across Connect/RemoveNode/Prune.
func (m *Mesh) NeighborsView(a int) []int {
	if a < 0 || a >= len(m.deg) {
		return nil
	}
	at := a * m.max
	return m.arena[at : at+int(m.deg[a]) : at+m.max]
}

// Degree returns the number of links a holds.
func (m *Mesh) Degree(a int) int { return len(m.NeighborsView(a)) }

// Full reports whether a cannot take more links; an unlinkable id is not.
func (m *Mesh) Full(a int) bool { return a >= 0 && a < m.limit && m.Degree(a) >= m.max }

// unlink removes a from b's side of an edge.
func (m *Mesh) unlink(b, a int) {
	l := m.NeighborsView(b)
	if i, ok := find(l, a); ok {
		copy(l[i:], l[i+1:])
		m.deg[b]--
	}
}

// RemoveNode drops a and all its edges (both directions).
func (m *Mesh) RemoveNode(a int) { m.Prune(a, func(int) bool { return false }) }

// Prune removes a's edges to every neighbour failing keep and reports the
// number of neighbours examined — the probe/repair primitive. It runs
// without allocating: the neighbour list is walked in descending order so
// removing the entry at the walk's own index never shifts an unvisited one,
// and only the far side of a cut edge is searched.
func (m *Mesh) Prune(a int, keep func(int) bool) int {
	nbs := m.NeighborsView(a)
	for i := len(nbs) - 1; i >= 0; i-- {
		if b := nbs[i]; !keep(b) {
			m.unlink(b, a)
			m.deg[a]--
			copy(nbs[i:m.deg[a]], nbs[i+1:])
		}
	}
	return len(nbs)
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
		clear(s.at)
		s.epoch = 1
	}
}

// Add inserts n and reports whether it was absent.
func (s *Stamps) Add(n int) bool {
	if n >= len(s.at) {
		s.at = append(s.at, make([]uint32, n+1+n/2-len(s.at))...)
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
	return &FloodScratch{visited: Stamps{at: make([]uint32, max(n, 0))}}
}

// Flood performs the paper's query forwarding, reusing the scratch buffers:
// origin sends the query to its neighbours with the given TTL; each receiver
// that does not match forwards to its own neighbours while TTL remains.
// neighbors supplies adjacency and match is the "has the video" predicate.
// The origin itself is not matched. Negative node ids are not supported
// (node ids are dense user indices).
func (s *FloodScratch) Flood(origin int, ttl int, neighbors func(int) []int, match func(int) bool) FloodResult {
	var res FloodResult
	if ttl <= 0 || origin < 0 || neighbors == nil || match == nil {
		return res
	}
	s.visited.Reset()
	s.visited.Add(origin)
	s.frontier = append(s.frontier[:0], origin)
	for depth := 1; depth <= ttl && len(s.frontier) > 0; depth++ {
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
	}
	return res
}
