package vod

import (
	"slices"
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/trace"
)

// mapCache is the map-backed cache the slice-backed Cache replaced, kept as
// the model the test below drives alongside it.
type mapCache struct {
	maxVideos    int
	full, prefix map[trace.VideoID]bool
	order        []trace.VideoID
}

func (c *mapCache) AddFull(v trace.VideoID) {
	if c.full[v] {
		i := slices.Index(c.order, v)
		c.order = append(slices.Delete(c.order, i, i+1), v)
		return
	}
	c.full[v] = true
	c.order = append(c.order, v)
	delete(c.prefix, v)
	if c.maxVideos > 0 && len(c.full) > c.maxVideos {
		delete(c.full, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *mapCache) AddPrefix(v trace.VideoID) {
	if !c.full[v] {
		c.prefix[v] = true
	}
}

// TestCacheMatchesMapModel drives the slice-backed cache and the map model
// through the same random AddFull/AddPrefix sequence, unbounded and at two
// LRU bounds, comparing every observable after every step. Forty ids keep
// hits, misses, LRU touches, prefix supersession and evictions all frequent.
func TestCacheMatchesMapModel(t *testing.T) {
	for _, maxVideos := range []int{0, 1, 3} {
		c := NewCache(maxVideos)
		m := &mapCache{maxVideos: maxVideos, full: map[trace.VideoID]bool{}, prefix: map[trace.VideoID]bool{}}
		g := dist.NewRNG(int64(maxVideos) + 1)
		for step := 0; step < 5000; step++ {
			v := trace.VideoID(g.Intn(40))
			if g.Bool(0.5) {
				c.AddFull(v)
				m.AddFull(v)
			} else {
				c.AddPrefix(v)
				m.AddPrefix(v)
			}
			if c.FullLen() != len(m.full) || len(c.prefix) != len(m.prefix) {
				t.Fatalf("max=%d step %d: lens full %d prefix %d, model %d %d",
					maxVideos, step, c.FullLen(), len(c.prefix), len(m.full), len(m.prefix))
			}
			if got := c.FullVideos(); !slices.Equal(got, m.order) {
				t.Fatalf("max=%d step %d: FullVideos %v, model %v", maxVideos, step, got, m.order)
			}
			for i, v := range m.order {
				if got := c.FullAt(i); got != v {
					t.Fatalf("max=%d step %d: FullAt(%d) = %d, model %d", maxVideos, step, i, got, v)
				}
			}
			for probe := trace.VideoID(-1); probe <= 40; probe++ {
				if c.HasFull(probe) != m.full[probe] || c.HasPrefix(probe) != (m.full[probe] || m.prefix[probe]) {
					t.Fatalf("max=%d step %d: video %d: HasFull %v HasPrefix %v, model full %v prefix %v",
						maxVideos, step, probe, c.HasFull(probe), c.HasPrefix(probe), m.full[probe], m.prefix[probe])
				}
			}
		}
	}
}

// TestCachesMatchMapModel drives a Caches over a few nodes and one map model
// per node through the same random AddFull/AddPrefix sequence, unbounded and
// at two LRU bounds. After every step each node's word must be the OR of its
// held full videos' bits, and HasFull and HasPrefix must agree with the
// model for every video in the catalog. The catalog spans more than 64 ids,
// so words also carry bits set by a different video than the one asked.
func TestCachesMatchMapModel(t *testing.T) {
	const nodes, catalog = 4, 100
	for _, maxVideos := range []int{0, 1, 3} {
		c := NewCaches(nodes, maxVideos)
		models := make([]*mapCache, nodes)
		for i := range models {
			models[i] = &mapCache{maxVideos: maxVideos, full: map[trace.VideoID]bool{}, prefix: map[trace.VideoID]bool{}}
		}
		g := dist.NewRNG(int64(maxVideos) + 11)
		for step := 0; step < 2000; step++ {
			node, v := g.Intn(nodes), trace.VideoID(g.Intn(catalog))
			if g.Bool(0.5) {
				c.AddFull(node, v)
				models[node].AddFull(v)
			} else {
				c.Cache(node).AddPrefix(v)
				models[node].AddPrefix(v)
			}
			for n, m := range models {
				var want uint64
				for held := range m.full {
					want |= fingerprint(held)
				}
				if c.words[n] != want {
					t.Fatalf("max=%d step %d: node %d word %#x, held videos %v give %#x",
						maxVideos, step, n, c.words[n], m.order, want)
				}
				for probe := trace.VideoID(0); probe < catalog; probe++ {
					if c.HasFull(n, probe) != m.full[probe] || c.Cache(n).HasPrefix(probe) != (m.full[probe] || m.prefix[probe]) {
						t.Fatalf("max=%d step %d: node %d video %d: HasFull %v HasPrefix %v, model full %v prefix %v",
							maxVideos, step, n, probe, c.HasFull(n, probe), c.Cache(n).HasPrefix(probe), m.full[probe], m.prefix[probe])
					}
				}
			}
		}
	}
}
