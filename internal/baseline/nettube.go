// Package baseline reimplements the two comparison systems of the paper's
// evaluation on the same simulator interfaces as SocialTube: NetTube
// (Cheng & Liu, INFOCOM'09 — per-video overlays with a session cache and
// random neighbour prefetching) and PA-VoD (Huang, Li & Ross, SIGCOMM'07 —
// server-directed peer assistance from current watchers, no cache).
package baseline

import (
	"fmt"
	"slices"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// NetTubeConfig holds NetTube's protocol parameters.
type NetTubeConfig struct {
	// LinksPerOverlay bounds a node's links within one per-video overlay
	// (the paper's analysis assumes ≈log(u) links per overlay).
	LinksPerOverlay int
	// TTL bounds query forwarding; NetTube queries neighbours within two
	// hops.
	TTL int
	// PrefetchCount is how many videos a node randomly prefetches from
	// its neighbours' caches (the paper's experiments use 3; 0 disables).
	PrefetchCount int
	// CacheVideos bounds the cache (0 = unbounded session cache).
	CacheVideos int
	// Seed drives random choices.
	Seed int64
}

// DefaultNetTubeConfig returns the parameters used in the paper's
// comparison.
func DefaultNetTubeConfig() NetTubeConfig {
	return NetTubeConfig{
		LinksPerOverlay: 6,
		TTL:             2,
		PrefetchCount:   3,
		Seed:            1,
	}
}

// Validate reports the first problem with the configuration.
func (c NetTubeConfig) Validate() error {
	switch {
	case c.LinksPerOverlay <= 0:
		return fmt.Errorf("%w: linksPerOverlay=%d", dist.ErrBadParameter, c.LinksPerOverlay)
	case c.TTL <= 0:
		return fmt.Errorf("%w: ttl=%d", dist.ErrBadParameter, c.TTL)
	case c.PrefetchCount < 0:
		return fmt.Errorf("%w: prefetchCount=%d", dist.ErrBadParameter, c.PrefetchCount)
	case c.CacheVideos < 0:
		return fmt.Errorf("%w: cacheVideos=%d", dist.ErrBadParameter, c.CacheVideos)
	}
	return nil
}

// NetTube implements the per-video-overlay baseline over a trace, on the
// shared vod.Chassis. Node ids are dense user indices, so per-node state is
// slice-indexed.
type NetTube struct {
	vod.Chassis
	cfg NetTubeConfig
	// overlays holds one mesh per video, stored with its nodes; a node
	// that watched the video stays in its overlay as a provider.
	overlays *overlay.Family[trace.VideoID]
	// members tracks the online members of each per-video overlay, by video
	// id — the per-video state the central server must keep (contrast §IV-A).
	// A video no node has joined has a nil entry, which reads as empty. A
	// node's index in members[v] sits beside v in its ntNode.
	members []*overlay.Members
	nodes   []ntNode
	// caches holds every node's cache beside the fingerprint word the
	// flood's hit test reads first.
	caches vod.Caches

	// scratch is the reusable flood state; unionSeen/unionBuf back the
	// allocation-free cross-overlay neighbour union, which runs inside a
	// flood and so cannot share the scratch's own visited set.
	scratch   overlay.FloodScratch
	unionSeen overlay.Stamps
	unionBuf  []int
}

var _ vod.Protocol = (*NetTube)(nil)

type ntNode struct {
	// joined lists the per-video overlays the node currently has links
	// in, sorted ascending so every iteration order is deterministic.
	joined []trace.VideoID
	// memberAt[i] is the node's index in members[joined[i]]; -1 while a
	// failed node's entry stays in joined but has left the set.
	memberAt []int32
	// suspect: a joined overlay may link an offline node (depart and
	// joinOverlay set it); only then does a probe prune, clearing it.
	suspect bool
}

// NewNetTube builds a NetTube system over the trace.
func NewNetTube(cfg NetTubeConfig, tr *trace.Trace) (*NetTube, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("nettube config: %w", err)
	}
	chassis, err := vod.NewChassis("NetTube", tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := &NetTube{
		Chassis:  chassis,
		cfg:      cfg,
		overlays: overlay.NewFamily[trace.VideoID](cfg.LinksPerOverlay, len(tr.Users)),
		members:  make([]*overlay.Members, len(tr.Videos)),
		nodes:    make([]ntNode, len(tr.Users)),
		caches:   vod.NewCaches(len(tr.Users), cfg.CacheVideos),
		scratch:  *overlay.NewFloodScratch(len(tr.Users)),
	}
	return n, nil
}

// Join implements vod.Protocol. A returning NetTube node starts with no
// overlay links and accumulates them as it watches videos — the behaviour
// behind the growing curve of Fig. 18.
func (n *NetTube) Join(node int) { n.Arrive(node) }

// Leave implements vod.Protocol: graceful departure from every overlay.
func (n *NetTube) Leave(node int) { n.depart(node, obs.KindLeave) }

// Fail implements vod.Protocol: the node vanishes from member sets but its
// mesh links linger until neighbours probe.
func (n *NetTube) Fail(node int) { n.depart(node, obs.KindFail) }

// depart takes the node out of its member sets (a leave also out of its
// joined overlays' meshes) and marks every node it still links suspect: a
// failure keeps every edge, a leave those in slots it never joined.
func (n *NetTube) depart(node int, kind obs.Kind) {
	if !n.Depart(node, kind) {
		return
	}
	st := &n.nodes[node]
	for i, v := range st.joined {
		n.unenroll(node, i)
		if kind == obs.KindLeave {
			n.overlays.RemoveNode(v, node)
		}
	}
	if kind == obs.KindLeave {
		st.joined, st.memberAt = st.joined[:0], st.memberAt[:0]
	}
	for i := 0; ; i++ {
		_, nbs, ok := n.overlays.Slot(node, i)
		if !ok {
			return
		}
		for _, nb := range nbs {
			n.nodes[nb].suspect = true
		}
	}
}

// unenroll takes the node out of the member set of its i-th joined video,
// if there, and gives the member moved into its place that index.
func (n *NetTube) unenroll(node, i int) {
	st := &n.nodes[node]
	v, at := st.joined[i], st.memberAt[i]
	if at < 0 {
		return
	}
	if moved := n.members[v].Remove(int(at)); moved >= 0 {
		j, _ := slices.BinarySearch(n.nodes[moved].joined, v)
		n.nodes[moved].memberAt[j] = at
	}
	st.memberAt[i] = -1
}

// eachJoined calls fn with each joined overlay the node has a slot in, in
// video order: one merge walk of the joined list against the slot list.
func (n *NetTube) eachJoined(node int, fn func(v trace.VideoID, nbs []int)) {
	joined := n.joined(node)
	for i, j := 0, 0; i < len(joined); {
		switch v, nbs, ok := n.overlays.Slot(node, j); {
		case !ok:
			return
		case v < joined[i]:
			j++
		case v > joined[i]:
			i++
		default:
			fn(v, nbs)
			i, j = i+1, j+1
		}
	}
}

// unionNeighbors returns the node's neighbours across every overlay it has
// joined — NetTube nodes forward queries over all their links. The result
// is a reusable buffer, valid until the next unionNeighbors call; the
// joined list is sorted, so the order is deterministic.
func (n *NetTube) unionNeighbors(node int) []int {
	if !n.Online(node) {
		return nil
	}
	n.unionSeen.Reset()
	out := n.unionBuf[:0]
	n.eachJoined(node, func(_ trace.VideoID, nbs []int) {
		for _, nb := range nbs {
			if n.unionSeen.Add(nb) {
				out = append(out, nb)
			}
		}
	})
	n.unionBuf = out
	return out
}

// Request implements vod.Protocol: locate inside the chassis' request
// bracket (span before, accounting and serve event after).
func (n *NetTube) Request(node int, v trace.VideoID) vod.RequestResult {
	n.BeginRequest()
	return n.Account(node, v, n.locate(node, v))
}

// locate queries neighbours within TTL hops across the node's overlays; on a
// miss the server serves the video and directs the node into the video's
// overlay.
func (n *NetTube) locate(node int, v trace.VideoID) vod.RequestResult {
	if !n.Online(node) || n.Trace.Video(v) == nil {
		return vod.RequestResult{Source: vod.SourceServer}
	}
	st := &n.nodes[node]
	res := vod.RequestResult{PrefixCached: n.caches.HasPrefix(node, v)}
	if res.PrefixCached && n.caches.HasFull(node, v) {
		res.Source = vod.SourceCache
		return res
	}
	match := func(m int) bool { return n.Online(m) && n.caches.HasFull(m, v) }
	// A node with overlay links queries its neighbours within TTL hops;
	// a fresh node (first request of a session) instead asks the server,
	// which directs it to providers in the video's overlay. On a miss the
	// server serves the video itself. NetTube has no hierarchy, so its
	// cross-overlay flood counts at the channel level and its
	// server-directed provider lookup at the server level.
	if len(st.joined) > 0 {
		n.Ctr.LookupsChannel++
		fr := n.scratch.Flood(node, n.cfg.TTL, n.unionNeighbors, match)
		res.Messages += fr.Messages
		n.Flooded(node, v, obs.LevelChannel, fr.OK, fr.Found, fr.Hops, fr.Messages)
		if fr.OK {
			res.Source, res.Provider, res.Hops = vod.SourcePeer, fr.Found, fr.Hops
			n.joinOverlay(node, v, fr.Found)
			return res
		}
		n.Ctr.TTLExhausted++
	}
	// The request reaches the server either way: it serves the video, and
	// for a fresh node it first tries to direct the request to a provider
	// already in the video's overlay.
	n.Ctr.LookupsServer++
	if len(st.joined) == 0 {
		if provider := n.members[v].Random(n.RNG, node); provider >= 0 && match(provider) {
			res.Source, res.Provider, res.Hops = vod.SourcePeer, provider, 1
			res.Messages++ // the server-directed contact
			n.Flooded(node, v, obs.LevelServer, true, provider, 1, 1)
			n.joinOverlay(node, v, provider)
			return res
		}
	}
	res.Source = vod.SourceServer
	n.joinOverlay(node, v, -1)
	return res
}

// joinOverlay places the node in the video's overlay, linking it to the
// provider (when given) and to random overlay members up to the bound.
func (n *NetTube) joinOverlay(node int, v trace.VideoID, provider int) {
	if n.members[v] == nil {
		n.members[v] = &overlay.Members{}
	}
	members := n.members[v]
	st := &n.nodes[node]
	i, in := slices.BinarySearch(st.joined, v)
	if !in {
		st.joined = slices.Insert(st.joined, i, v)
		st.memberAt = slices.Insert(st.memberAt, i, -1)
		if len(n.overlays.NeighborsView(v, node)) > 0 {
			st.suspect = true // no probe has walked this slot
		}
	}
	if st.memberAt[i] < 0 {
		st.memberAt[i] = int32(members.Add(node))
	}
	if provider >= 0 {
		n.overlays.Connect(v, node, provider)
	}
	for attempts := 0; !n.overlays.Full(v, node) && attempts < 2*n.cfg.LinksPerOverlay; attempts++ {
		cand := members.Random(n.RNG, node)
		if cand < 0 {
			break
		}
		if n.Online(cand) {
			n.overlays.Connect(v, node, cand)
		}
	}
}

// Finish implements vod.Protocol: cache the video, stay in its overlay as a
// provider, and prefetch the first chunks of randomly chosen videos from
// neighbours' caches (NetTube's related-video prefetching).
func (n *NetTube) Finish(node int, v trace.VideoID) {
	if !n.Known(node) || n.Trace.Video(v) == nil {
		return
	}
	n.caches.AddFull(node, v)
	if n.cfg.PrefetchCount <= 0 {
		return
	}
	neighbors := n.unionNeighbors(node)
	if len(neighbors) == 0 {
		return
	}
	prefetched := 0
	for attempts := 0; prefetched < n.cfg.PrefetchCount && attempts < 4*n.cfg.PrefetchCount; attempts++ {
		held := n.caches.Cache(neighbors[n.RNG.Intn(len(neighbors))])
		if held.FullLen() == 0 {
			continue
		}
		pick := held.FullAt(n.RNG.Intn(held.FullLen()))
		if n.caches.HasPrefix(node, pick) {
			continue // already local (the video just watched included)
		}
		n.caches.Cache(node).AddPrefix(pick)
		n.Prefetched(node, pick)
		prefetched++
	}
}

// Links implements vod.Protocol: total links across all per-video overlays,
// counting redundant links to the same neighbour in different overlays
// separately — exactly the overhead §IV-C criticizes.
func (n *NetTube) Links(node int) int {
	total := 0
	n.eachJoined(node, func(_ trace.VideoID, nbs []int) { total += len(nbs) })
	return total
}

// Probe checks every link in the node's joined overlays, pruning dead ones
// if the node is suspect, and returns the number of probe messages sent.
func (n *NetTube) Probe(node int) int {
	if !n.Online(node) {
		return 0
	}
	msgs := n.Links(node)
	if st := &n.nodes[node]; st.suspect {
		st.suspect = false
		n.eachJoined(node, func(v trace.VideoID, _ []int) {
			_, removed := n.overlays.Prune(v, node, n.Online)
			n.Ctr.LinksPruned += uint64(removed)
		})
	}
	n.Probed(node, msgs)
	return msgs
}

// joined is the node's sorted overlay list (nil for an unknown node).
func (n *NetTube) joined(node int) []trace.VideoID {
	if !n.Known(node) {
		return nil
	}
	return n.nodes[node].joined
}
