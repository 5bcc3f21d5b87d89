// Package vod holds the video-on-demand abstractions shared by every
// protocol: chunked videos, the session cache peers serve from, and the
// viewing-behaviour model that drives trace-driven experiments.
package vod

import (
	"fmt"
	"slices"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/trace"
)

// DefaultBitrateBps is the average YouTube video bitrate the paper cites
// (330 kbps per Cheng et al.; Table I uses 320 kbps).
const DefaultBitrateBps = 320_000

// DefaultChunksPerVideo is Table I's chunk count per video.
const DefaultChunksPerVideo = 2

// ChunkBytes returns the size in bytes of one chunk of a video of the given
// length at the given bitrate, split into chunks equal parts.
func ChunkBytes(length time.Duration, bitrateBps int64, chunks int) int64 {
	if chunks <= 0 || length <= 0 || bitrateBps <= 0 {
		return 0
	}
	total := int64(length.Seconds() * float64(bitrateBps) / 8)
	return total / int64(chunks)
}

// Cache is a peer's video store. The paper's protocols cache every video
// watched during a session (NetTube, SocialTube) plus prefetched first
// chunks; MaxVideos=0 reproduces that unbounded session cache, while a
// positive bound turns it into an LRU cache for the ablation benches.
//
// A peer holds few short videos, so both sets are sorted slices, not maps:
// a lookup is a binary search over a cache line or two, and a Cache is three
// slice headers a protocol embeds by value in its per-node state.
type Cache struct {
	maxVideos int
	full      []trace.VideoID // sorted ascending
	prefix    []trace.VideoID // prefix-only entries, sorted ascending
	order     []trace.VideoID // the full videos in LRU order, oldest first
}

// NewCache returns a cache bounded to maxVideos full videos (0 = unbounded).
func NewCache(maxVideos int) *Cache { return &Cache{maxVideos: maxVideos} }

// remove deletes v from the sorted set if present.
func remove(set []trace.VideoID, v trace.VideoID) []trace.VideoID {
	if i, ok := slices.BinarySearch(set, v); ok {
		set = slices.Delete(set, i, i+1)
	}
	return set
}

// AddFull stores a complete video, evicting the least recently used video
// if the bound is exceeded. Storing a full video supersedes its prefix.
func (c *Cache) AddFull(v trace.VideoID) {
	at, held := slices.BinarySearch(c.full, v)
	if held {
		// Refresh its LRU position.
		i := slices.Index(c.order, v)
		c.order = append(slices.Delete(c.order, i, i+1), v)
		return
	}
	c.full = slices.Insert(c.full, at, v)
	c.order = append(c.order, v)
	c.prefix = remove(c.prefix, v)
	if c.maxVideos > 0 && len(c.order) > c.maxVideos {
		c.full = remove(c.full, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
}

// AddPrefix stores only the first chunk of a video (a prefetch). A prefix
// never evicts full videos; prefetched chunks are tiny (~15 KB per the
// paper) so they are not counted against the video bound.
func (c *Cache) AddPrefix(v trace.VideoID) {
	if at, held := slices.BinarySearch(c.prefix, v); !held && !c.HasFull(v) {
		c.prefix = slices.Insert(c.prefix, at, v)
	}
}

// HasFull reports whether the complete video is cached.
func (c *Cache) HasFull(v trace.VideoID) bool {
	_, ok := slices.BinarySearch(c.full, v)
	return ok
}

// HasPrefix reports whether at least the first chunk is cached.
func (c *Cache) HasPrefix(v trace.VideoID) bool {
	if _, ok := slices.BinarySearch(c.prefix, v); ok {
		return true
	}
	return c.HasFull(v)
}

// FullLen returns the number of complete videos cached.
func (c *Cache) FullLen() int { return len(c.full) }

// FullAt returns the i-th fully cached video in LRU order, oldest first
// (the order FullVideos copies), for 0 <= i < FullLen.
func (c *Cache) FullAt(i int) trace.VideoID { return c.order[i] }

// FullVideos returns the ids of all fully cached videos (copy).
func (c *Cache) FullVideos() []trace.VideoID { return slices.Clone(c.order) }

// Caches holds a known population's caches, node-indexed, beside one
// fingerprint word per node: bit v%64 is set when the node holds a full
// video whose id is v modulo 64. A flood asks each node it visits whether it
// holds one video; the word answers most misses with one load, and a set bit
// still runs the exact search: saturation costs speed, never an answer.
type Caches struct {
	caches []Cache
	words  []uint64
}

// NewCaches returns n empty caches bounded to maxVideos full videos each.
func NewCaches(n, maxVideos int) Caches {
	c := Caches{caches: make([]Cache, n), words: make([]uint64, n)}
	for i := range c.caches {
		c.caches[i].maxVideos = maxVideos
	}
	return c
}

func fingerprint(v trace.VideoID) uint64 { return 1 << (uint64(v) & 63) }

// Cache returns the node's cache. Store full videos through AddFull, which
// keeps the node's word in step; prefixes and reads need no word.
func (c *Caches) Cache(node int) *Cache { return &c.caches[node] }

// AddFull is Cache.AddFull on the node's cache. A new video sets its bit; a
// held one, or one whose storing evicted another, rebuilds the word.
func (c *Caches) AddFull(node int, v trace.VideoID) {
	cache := &c.caches[node]
	held := len(cache.full)
	cache.AddFull(v)
	w := c.words[node] | fingerprint(v)
	if len(cache.full) == held {
		w = 0
		for _, u := range cache.full {
			w |= fingerprint(u)
		}
	}
	c.words[node] = w
}

// HasFull is Cache.HasFull on the node's cache, skipping the search when
// the node's word lacks v's bit.
func (c *Caches) HasFull(node int, v trace.VideoID) bool {
	return c.words[node]&fingerprint(v) != 0 && c.caches[node].HasFull(v)
}

// PickPrefetch is §IV-B's top-M prefetch pick, the one statement both
// substrates call: it appends to out the first m entries of the
// popularity-ordered list that skip does not reject, in rank order.
func PickPrefetch(out, list []trace.VideoID, m int, skip func(trace.VideoID) bool) []trace.VideoID {
	for i := 0; i < len(list) && m > 0; i++ {
		if !skip(list[i]) {
			out = append(out, list[i])
			m--
		}
	}
	return out
}

// SameISP is PA-VoD's locality rule (Huang et al. "localize P2P traffic
// within an ISP"): with isps ≥ 2 ISPs, nodes a and b may exchange video
// only when they land in the same ISP by id modulo isps. Fewer than two
// ISPs disable locality.
func SameISP(a, b, isps int) bool { return isps < 2 || a%isps == b%isps }

// Behavior holds the probabilities of the paper's video-selection mechanism
// (§V): when choosing the next video, a node picks from the same channel
// with PSameChannel, the same category with PSameCategory, and anywhere
// else with the remainder.
type Behavior struct {
	PSameChannel  float64
	PSameCategory float64
}

// DefaultBehavior is the paper's 75% / 15% / 10% split.
func DefaultBehavior() Behavior {
	return Behavior{PSameChannel: 0.75, PSameCategory: 0.15}
}

// Validate reports the first problem with the behaviour probabilities.
func (b Behavior) Validate() error {
	if b.PSameChannel < 0 || b.PSameCategory < 0 || b.PSameChannel+b.PSameCategory > 1 {
		return fmt.Errorf("%w: behavior %+v", dist.ErrBadParameter, b)
	}
	return nil
}

// Picker selects videos according to the behaviour model over a trace. It
// precomputes popularity indexes so repeated picks are cheap. It never
// changes after NewPicker and reads only the catalog, so the cells of a
// partition and the emulator's peers share one without a lock.
type Picker struct {
	tr       *trace.Trace
	behavior Behavior
	// byCat lists each category's videos; byCatDraw[c] draws an index into
	// byCat[c], and all an index into the trace's videos, by view count.
	byCat     [][]trace.VideoID
	byCatDraw []dist.Cumulative
	all       dist.Cumulative
	// zipfBySize holds a Zipf sampler for every channel size in the
	// catalog, indexed by that size; sizes no channel has are nil.
	zipfBySize []*dist.Zipf
}

// NewPicker builds a picker over the trace with the given behaviour.
func NewPicker(tr *trace.Trace, b Behavior) (*Picker, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || len(tr.Videos) == 0 {
		return nil, fmt.Errorf("%w: picker needs a non-empty trace", dist.ErrBadParameter)
	}
	largest := 0
	for i := range tr.Channels {
		largest = max(largest, len(tr.Channels[i].Videos))
	}
	p := &Picker{
		tr:         tr,
		behavior:   b,
		byCat:      make([][]trace.VideoID, tr.Categories),
		byCatDraw:  make([]dist.Cumulative, tr.Categories),
		zipfBySize: make([]*dist.Zipf, largest+1),
	}
	for i := range tr.Channels {
		if n := len(tr.Channels[i].Videos); n > 0 && p.zipfBySize[n] == nil {
			p.zipfBySize[n], _ = dist.NewZipf(n, 1) // n ≥ 1 and s = 1 always build
		}
	}
	// Count each category's videos first, so every table is carved or
	// allocated at its final size and the catalog is walked in place.
	counts := make([]int, tr.Categories)
	for i := range tr.Videos {
		if c := int(tr.Videos[i].Category); c >= 0 && c < tr.Categories {
			counts[c]++
		}
	}
	ids := make([]trace.VideoID, len(tr.Videos))
	for c, n := range counts {
		p.byCat[c], ids = ids[:0:n], ids[n:]
		p.byCatDraw[c] = dist.NewCumulative(n)
	}
	p.all = dist.NewCumulative(len(tr.Videos))
	for i := range tr.Videos {
		v := &tr.Videos[i]
		p.all.Add(float64(v.Views))
		if c := int(v.Category); c >= 0 && c < tr.Categories {
			p.byCat[c] = append(p.byCat[c], v.ID)
			p.byCatDraw[c].Add(float64(v.Views))
		}
	}
	return p, nil
}

// First picks a session's first video: a popularity-weighted draw from the
// user's subscribed channels, falling back to a global draw when the user
// has no subscriptions.
func (p *Picker) First(g *dist.RNG, u *trace.User) trace.VideoID {
	if u != nil && len(u.Subscriptions) > 0 {
		ch := p.tr.Channel(u.Subscriptions[g.Intn(len(u.Subscriptions))])
		if ch != nil && len(ch.Videos) > 0 {
			return p.fromChannel(g, ch)
		}
	}
	return p.global(g)
}

// Next picks the video to watch after current using the 75/15/10 rule.
func (p *Picker) Next(g *dist.RNG, current trace.VideoID) trace.VideoID {
	v := p.tr.Video(current)
	if v == nil {
		return p.global(g)
	}
	u := g.Float64()
	switch {
	case u < p.behavior.PSameChannel:
		if ch := p.tr.Channel(v.Channel); ch != nil && len(ch.Videos) > 1 {
			return p.fromChannel(g, ch)
		}
	case u < p.behavior.PSameChannel+p.behavior.PSameCategory:
		if picked, ok := p.fromCategory(g, v.Category); ok {
			return picked
		}
	default:
		// A different category, if one exists.
		if p.tr.Categories > 1 {
			for attempts := 0; attempts < 10; attempts++ {
				c := trace.CategoryID(g.Intn(p.tr.Categories))
				if c == v.Category {
					continue
				}
				if picked, ok := p.fromCategory(g, c); ok {
					return picked
				}
			}
		}
	}
	return p.global(g)
}

// fromChannel draws a video from the channel, Zipf-weighted by rank — the
// within-channel popularity distribution of Fig. 9.
func (p *Picker) fromChannel(g *dist.RNG, ch *trace.Channel) trace.VideoID {
	return ch.Videos[p.zipfBySize[len(ch.Videos)].Sample(g)-1]
}

func (p *Picker) fromCategory(g *dist.RNG, c trace.CategoryID) (trace.VideoID, bool) {
	ci := int(c)
	if ci < 0 || ci >= len(p.byCat) || len(p.byCat[ci]) == 0 {
		return 0, false
	}
	idx := p.byCatDraw[ci].Choice(g)
	if idx < 0 {
		return 0, false
	}
	return p.byCat[ci][idx], true
}

func (p *Picker) global(g *dist.RNG) trace.VideoID {
	idx := p.all.Choice(g)
	if idx < 0 {
		return p.tr.Videos[g.Intn(len(p.tr.Videos))].ID
	}
	return p.tr.Videos[idx].ID
}

// SessionPlan is one user session: which videos get watched and when the
// node goes back offline.
type SessionPlan struct {
	Videos  []trace.VideoID
	OffTime time.Duration
}

// PlanSession builds a session of nVideos views for the user, with an
// exponentially distributed off-time afterwards (the paper's Poisson
// session-arrival model, mean 500 s in simulation).
func (p *Picker) PlanSession(g *dist.RNG, u *trace.User, nVideos int, meanOff time.Duration) SessionPlan {
	plan := SessionPlan{
		Videos:  make([]trace.VideoID, 0, nVideos),
		OffTime: time.Duration(dist.Exponential(g, float64(meanOff))),
	}
	if nVideos <= 0 {
		return plan
	}
	cur := p.First(g, u)
	plan.Videos = append(plan.Videos, cur)
	for len(plan.Videos) < nVideos {
		cur = p.Next(g, cur)
		plan.Videos = append(plan.Videos, cur)
	}
	return plan
}
