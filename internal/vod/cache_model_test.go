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
			if c.FullLen() != len(m.full) || c.PrefixLen() != len(m.prefix) {
				t.Fatalf("max=%d step %d: lens full %d prefix %d, model %d %d",
					maxVideos, step, c.FullLen(), c.PrefixLen(), len(m.full), len(m.prefix))
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
