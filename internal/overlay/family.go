package overlay

import "slices"

// Family is one bounded symmetric mesh per key (NetTube's per-video
// overlays) stored with its nodes: node n keeps one flat []int of max+2-int
// slots — key, degree, neighbours ascending — one per overlay it has links
// in, in key order. A keyed operation binary-searches the node's own list
// (an unjoined overlay costs nothing), is Mesh's with the key first and
// returns what one NewMesh per key would; Slot walks the list in order.
type Family[K ~int] struct {
	max   int
	nodes [][]int
	blank []int // a new slot's contents
}

// NewFamily returns a family over node ids 0..n-1 (no other id is ever
// linked) whose nodes each hold at most bound links per key.
func NewFamily[K ~int](bound, n int) *Family[K] {
	bound = max(bound, 0)
	return &Family[K]{max: bound, nodes: make([][]int, n), blank: make([]int, bound+2)}
}

// search returns the offset of n's slot for key and true, or where that
// slot would be inserted and false; ids outside the population have none.
func (f *Family[K]) search(key K, n int) (int, bool) {
	if n < 0 || n >= len(f.nodes) {
		return 0, false
	}
	list, stride := f.nodes[n], f.max+2
	lo, hi := 0, len(list)/stride
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); list[mid*stride] < int(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo * stride, lo*stride < len(list) && list[lo*stride] == int(key)
}

// NeighborsView returns a's neighbours in key's overlay, ascending, without
// copying. The slice is live: a Connect, Prune or RemoveNode touching a, in
// any overlay, invalidates it.
func (f *Family[K]) NeighborsView(key K, a int) []int {
	if at, ok := f.search(key, a); ok {
		return f.view(a, at)
	}
	return nil
}

// view returns the neighbours in a's slot at offset at.
func (f *Family[K]) view(a, at int) []int {
	s := f.nodes[a][at:]
	return s[2 : 2+s[1] : f.max+2]
}

// Slot returns a's i-th slot in key order, as NeighborsView would, or false
// past the last: a walk beside a sorted key list needs no search. Prune
// keeps slot indices; Connect and RemoveNode may shift them.
func (f *Family[K]) Slot(a, i int) (key K, nbs []int, ok bool) {
	at := i * (f.max + 2)
	if a < 0 || a >= len(f.nodes) || i < 0 || at >= len(f.nodes[a]) {
		return 0, nil, false
	}
	return K(f.nodes[a][at]), f.view(a, at), true
}

// Full reports whether a cannot take more links in key's overlay.
func (f *Family[K]) Full(key K, a int) bool {
	at, ok := f.search(key, a)
	return ok && f.nodes[a][at+1] >= f.max
}

// Connect adds the symmetric edge (a, b) to key's overlay, searching each
// endpoint's list once. It reports false — and changes nothing — when
// a == b, the edge exists, or either endpoint is full or outside the
// population.
func (f *Family[K]) Connect(key K, a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= len(f.nodes) || b >= len(f.nodes) || f.max == 0 {
		return false
	}
	at, inA := f.search(key, a)
	bt, inB := f.search(key, b)
	if inA && (f.nodes[a][at+1] >= f.max || slices.Contains(f.view(a, at), b)) ||
		inB && f.nodes[b][bt+1] >= f.max {
		return false
	}
	f.insert(key, a, at, inA, b)
	f.insert(key, b, bt, inB, a)
	return true
}

// insert adds b to a's slot for key at offset at, which has room, first
// inserting that slot there when a has none (found false).
func (f *Family[K]) insert(key K, a, at int, found bool, b int) {
	if !found {
		f.nodes[a] = slices.Insert(f.nodes[a], at, f.blank...)
		f.nodes[a][at] = int(key)
	}
	s := f.nodes[a][at:]
	i, _ := find(s[2:2+s[1]], b)
	s[1] = insert(s[2:2+s[1]], i, b)
}

// unlink removes b from a's slot for key, if there.
func (f *Family[K]) unlink(key K, a, b int) {
	if at, ok := f.search(key, a); ok {
		nbs := f.view(a, at)
		if i, ok := find(nbs, b); ok {
			copy(nbs[i:], nbs[i+1:])
			f.nodes[a][at+1]--
		}
	}
}

// RemoveNode drops a from key's overlay with all its edges there.
func (f *Family[K]) RemoveNode(key K, a int) {
	for _, b := range f.NeighborsView(key, a) {
		f.unlink(key, b, a)
	}
	if at, ok := f.search(key, a); ok {
		f.nodes[a] = slices.Delete(f.nodes[a], at, at+f.max+2)
	}
}

// Prune removes a's edges in key's overlay to every neighbour failing keep
// and reports how many neighbours it examined and how many it removed. As in
// Mesh.Prune, the descending walk keeps removals off unvisited entries.
func (f *Family[K]) Prune(key K, a int, keep func(int) bool) (examined, removed int) {
	nbs := f.NeighborsView(key, a)
	for i := len(nbs) - 1; i >= 0; i-- {
		if b := nbs[i]; !keep(b) {
			f.unlink(key, a, b)
			f.unlink(key, b, a)
			removed++
		}
	}
	return len(nbs), removed
}
