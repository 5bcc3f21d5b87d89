package emu

import (
	"slices"

	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
)

// Link kinds, as carried in Message.Link.
const (
	linkInner = "inner" // SocialTube: within the home channel's overlay (N_l)
	linkInter = "inter" // SocialTube: across channels of the category (N_h)
	linkVideo = "video" // NetTube: within one per-video overlay
)

// linkTable is a peer's whole neighbour state and the only place a link
// budget, a duplicate or a self-link is checked — the paper's "at most N_l
// inner- plus N_h inter-links per node" (§IV-A) and NetTube's per-overlay
// bound. The bounded sets are the simulator's own overlay.Links; the table
// adds only what a socket needs (each linked peer's address) and the home
// channel. It does no I/O and is not safe for concurrent use (Peer guards
// it with p.mu).
type linkTable struct {
	self         int
	inner, inter *overlay.Links
	// videos holds one set per per-video overlay this peer joined.
	videos   map[trace.VideoID]*overlay.Links
	perVideo int
	// home is the channel the inner set belongs to (-1 = none): inner
	// links only exist within the home channel's overlay, so changing
	// home empties the set.
	home trace.ChannelID
	// addrs maps every linked peer to its address. An id no set links any
	// more may linger until dropPeer or reset; nothing reads it.
	addrs map[int]string
}

func newLinkTable(cfg PeerConfig) *linkTable {
	t := &linkTable{
		self:     cfg.ID,
		inner:    overlay.NewLinks(cfg.InnerLinks),
		inter:    overlay.NewLinks(cfg.InterLinks),
		perVideo: cfg.LinksPerOverlay,
	}
	t.reset()
	return t
}

// set returns the bounded set a (kind, video) pair addresses: nil for an
// unknown kind or a per-video overlay not joined. Only per-video overlays
// are keyed by video: whatever a frame carries there, there is one inner
// and one inter set.
func (t *linkTable) set(kind string, video trace.VideoID) *overlay.Links {
	switch kind {
	case linkInner:
		return t.inner
	case linkInter:
		return t.inter
	case linkVideo:
		return t.videos[video]
	}
	return nil
}

// canAdd reports whether a link to id fits the (kind, video) set: not a
// self-link, not a duplicate, within budget. An unknown kind has no budget;
// a per-video overlay not joined yet is empty.
func (t *linkTable) canAdd(kind string, id int, video trace.VideoID) bool {
	if id == t.self {
		return false
	}
	if s := t.set(kind, video); s != nil {
		return !s.Has(id) && !s.Full()
	}
	return kind == linkVideo && t.perVideo > 0
}

// add records a link this peer asked for and the far side accepted.
func (t *linkTable) add(kind string, info PeerInfo, video trace.VideoID) bool {
	if !t.canAdd(kind, info.ID, video) {
		return false
	}
	if kind == linkVideo {
		t.joinVideo(video)
	}
	t.set(kind, video).Add(info.ID)
	t.addrs[info.ID] = info.Addr
	return true
}

// accept decides a link the far side asked for. Beyond add's checks, an
// inner link must name the home channel, and a per-video link is only
// taken for an overlay this peer is in — one it joined, or whose video it
// holds (cached).
func (t *linkTable) accept(kind string, info PeerInfo, video trace.VideoID, cached bool) bool {
	switch kind {
	case linkInner:
		if trace.ChannelID(info.Channel) != t.home {
			return false
		}
	case linkVideo:
		if !cached && t.videos[video] == nil {
			return false
		}
	}
	return t.add(kind, info, video)
}

// joinVideo marks this peer a member of v's overlay (with no links yet).
func (t *linkTable) joinVideo(v trace.VideoID) {
	if t.videos[v] == nil {
		t.videos[v] = overlay.NewLinks(t.perVideo)
	}
}

// setHome moves the inner set to channel ch, emptying it when ch differs
// from the current home. Inter-links persist across the move (the
// simulator drops them on a category change: a DESIGN.md §2 divergence).
func (t *linkTable) setHome(ch trace.ChannelID) {
	if t.home != ch {
		t.home = ch
		t.inner.Clear()
	}
}

// neighbours returns the distinct peers linked through sets of the given
// kind ("" = every kind), ordered by id so floods, probes and seeded picks
// walk them in the same order run-to-run.
func (t *linkTable) neighbours(kind string) []PeerInfo {
	var ids []int
	if kind == "" || kind == linkInner {
		ids = append(ids, t.inner.View()...)
	}
	if kind == "" || kind == linkInter {
		ids = append(ids, t.inter.View()...)
	}
	if kind == "" || kind == linkVideo {
		for _, s := range t.videos {
			ids = append(ids, s.View()...)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([]PeerInfo, len(ids))
	for i, id := range ids {
		out[i] = PeerInfo{ID: id, Addr: t.addrs[id]}
	}
	return out
}

// dropPeer removes every link to id ("before a node leaves the system, it
// notifies all of its neighbors, which will update the links", §IV-A; a
// failed probe does the same for an abrupt departure).
func (t *linkTable) dropPeer(id int) {
	t.inner.Remove(id)
	t.inter.Remove(id)
	for _, s := range t.videos {
		s.Remove(id)
	}
	delete(t.addrs, id)
}

// reset forgets every link, overlay membership and the home channel.
func (t *linkTable) reset() {
	t.home = -1
	t.inner.Clear()
	t.inter.Clear()
	t.videos = make(map[trace.VideoID]*overlay.Links)
	t.addrs = make(map[int]string)
}

// count returns the total link count — the node's maintenance overhead.
func (t *linkTable) count() int {
	n := t.inner.Len() + t.inter.Len()
	for _, s := range t.videos {
		n += s.Len()
	}
	return n
}
