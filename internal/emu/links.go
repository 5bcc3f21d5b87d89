package emu

import (
	"sort"

	"github.com/socialtube/socialtube/internal/trace"
)

// Link kinds, as carried in Message.Link.
const (
	linkInner = "inner" // SocialTube: within the home channel's overlay (N_l)
	linkInter = "inter" // SocialTube: across channels of the category (N_h)
	linkVideo = "video" // NetTube: within one per-video overlay
)

// linkSet identifies one bounded neighbour set: the inner set, the inter
// set, or one per-video overlay.
type linkSet struct {
	kind  string
	video trace.VideoID
}

// setOf names the set a (kind, video) pair addresses. Only per-video
// overlays are keyed by video: whatever a frame carries there, there is
// one inner and one inter set.
func setOf(kind string, video trace.VideoID) linkSet {
	if kind != linkVideo {
		video = 0
	}
	return linkSet{kind, video}
}

// linkTable is a peer's whole neighbour state and the only place a link
// budget, a duplicate or a self-link is checked — the paper's "at most N_l
// inner- plus N_h inter-links per node" (§IV-A) and NetTube's per-overlay
// bound. It does no I/O and is not safe for concurrent use (Peer guards it
// with p.mu).
type linkTable struct {
	self   int
	budget map[string]int
	// home is the channel the inner set belongs to (-1 = none): inner
	// links only exist within the home channel's overlay, so changing
	// home empties the set.
	home trace.ChannelID
	sets map[linkSet]map[int]PeerInfo
}

func newLinkTable(cfg PeerConfig) *linkTable {
	return &linkTable{
		self: cfg.ID,
		budget: map[string]int{
			linkInner: cfg.InnerLinks,
			linkInter: cfg.InterLinks,
			linkVideo: cfg.LinksPerOverlay,
		},
		home: -1,
		sets: make(map[linkSet]map[int]PeerInfo),
	}
}

// size returns how many links the (kind, video) set holds.
func (t *linkTable) size(kind string, video trace.VideoID) int {
	return len(t.sets[setOf(kind, video)])
}

// room returns how many more links the (kind, video) set can take.
func (t *linkTable) room(kind string, video trace.VideoID) int {
	return t.budget[kind] - t.size(kind, video)
}

// canAdd reports whether a link to info fits the (kind, video) set: not a
// self-link, not a duplicate, within budget. An unknown kind has no budget.
func (t *linkTable) canAdd(kind string, info PeerInfo, video trace.VideoID) bool {
	if info.ID == t.self {
		return false
	}
	if _, dup := t.sets[setOf(kind, video)][info.ID]; dup {
		return false
	}
	return t.room(kind, video) > 0
}

// add records a link this peer asked for and the far side accepted.
func (t *linkTable) add(kind string, info PeerInfo, video trace.VideoID) bool {
	if !t.canAdd(kind, info, video) {
		return false
	}
	key := setOf(kind, video)
	if t.sets[key] == nil {
		t.sets[key] = make(map[int]PeerInfo)
	}
	t.sets[key][info.ID] = info
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
		if !cached && t.sets[setOf(kind, video)] == nil {
			return false
		}
	}
	return t.add(kind, info, video)
}

// joinVideo marks this peer a member of v's overlay (with no links yet).
func (t *linkTable) joinVideo(v trace.VideoID) {
	key := setOf(linkVideo, v)
	if t.sets[key] == nil {
		t.sets[key] = make(map[int]PeerInfo)
	}
}

// setHome moves the inner set to channel ch, emptying it when ch differs
// from the current home. Inter-links persist across the move.
func (t *linkTable) setHome(ch trace.ChannelID) {
	if t.home != ch {
		t.home = ch
		delete(t.sets, setOf(linkInner, 0))
	}
}

// neighbours returns the distinct peers linked through sets of the given
// kind ("" = every kind), ordered by id so floods, probes and seeded picks
// walk them in the same order run-to-run (Go map iteration is random).
func (t *linkTable) neighbours(kind string) []PeerInfo {
	seen := make(map[int]bool)
	var out []PeerInfo
	for key, set := range t.sets {
		if kind != "" && key.kind != kind {
			continue
		}
		for id, info := range set {
			if !seen[id] {
				seen[id] = true
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// dropPeer removes every link to id ("before a node leaves the system, it
// notifies all of its neighbors, which will update the links", §IV-A; a
// failed probe does the same for an abrupt departure).
func (t *linkTable) dropPeer(id int) {
	for _, set := range t.sets {
		delete(set, id)
	}
}

// reset forgets every link, overlay membership and the home channel.
func (t *linkTable) reset() {
	t.home = -1
	t.sets = make(map[linkSet]map[int]PeerInfo)
}

// count returns the total link count — the node's maintenance overhead.
func (t *linkTable) count() int {
	n := 0
	for _, set := range t.sets {
		n += len(set)
	}
	return n
}
