package core

import (
	"fmt"
	"slices"

	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// System is the SocialTube protocol over a trace. It implements
// vod.Protocol on the shared vod.Chassis (online table, counters, tracer,
// clock, spans, accounting); what this package states is SocialTube's
// decisions. It is single-threaded, driven by the experiment engine.
//
// Node and channel ids are dense, so all state is slice-indexed and no map
// is kept: a node's slot in its home channel's member set lives in its
// nodeState. No flood, probe or leave/join cycle allocates, and a probe
// prunes only when a neighbour's failure marked its node suspect.
type System struct {
	vod.Chassis
	cfg Config

	// inner is the lower level: every channel overlay in one mesh, each
	// node bounded to N_l inner-links. One mesh suffices because a node's
	// inner-links only ever live in the overlay of its nodeState.home —
	// every inner edge joins two nodes with the same home, and leaveHome
	// removes a node's edges before its home changes — so the overlay of
	// channel c is exactly the edges among the nodes whose home is c.
	inner *overlay.Mesh
	// inter is the higher-level mesh; links connect nodes across channels
	// of the same category, bounded to N_h per node.
	inter *overlay.Mesh
	// members tracks online nodes per channel overlay, indexed by channel
	// id — the state the server keeps so it can assist joins (much less
	// than NetTube's per-video tracking, as §IV-A notes). A node is in its
	// home's set at most, at its nodeState.slot.
	members []overlay.Members
	// nodes is indexed by node id, and so are prev's rows.
	nodes []nodeState
	// prev remembers each node's neighbours across sessions so a returning
	// node can reconnect without the server: row n is N_l+N_h slots, the
	// inner neighbours first, then the inter ones, counted in nodeState.
	prev []int32
	// caches holds every node's cache, which survives offline periods
	// ("nodes store their cached videos for their next session"), beside
	// the fingerprint word a flood's hit test reads first.
	caches vod.Caches
	// byCat indexes channels by primary category for inter-link seeding.
	byCat [][]trace.ChannelID
	// subs is each node's subscription set, indexed by node id: the
	// trace's own list until the node's first Subscribe, which replaces
	// it with a fresh one and never writes through it.
	subs [][]trace.ChannelID

	// scratch is the reusable flood state; one flood runs at a time, so a
	// single scratch serves every query the system issues.
	scratch overlay.FloodScratch
	// topBuf backs the prefetch pick's result, permBuf seedInterLinks' random
	// channel order.
	topBuf  []trace.VideoID
	permBuf []int

	// brk is the per-peer circuit breaker, pre-sized to the population so
	// every operation stays allocation-free on the Request hot path. The
	// sim is single-threaded and omniscient, so one shared Set stands in
	// for every node's local view; virtual time drives its windows.
	brk *health.Set
}

var _ vod.Protocol = (*System)(nil)

// nodeState is one peer's protocol state beside its cache.
type nodeState struct {
	// home is the channel overlay the node currently belongs to (the
	// channel it is watching); -1 when unattached.
	home trace.ChannelID
	// slot is the node's index in members[home]; -1 when it is not there.
	slot int32
	// prevInner and prevInter count the neighbours remembered in the
	// node's prev row.
	prevInner, prevInter uint8
	// suspect: a neighbour failed with the edge in place, so the next
	// prune runs (and clears it).
	suspect bool
}

// New builds a SocialTube system over the trace.
func New(cfg Config, tr *trace.Trace) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("socialtube config: %w", err)
	}
	chassis, err := vod.NewChassis("SocialTube", tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		Chassis: chassis,
		cfg:     cfg,
		inner:   overlay.NewDenseMesh(cfg.InnerLinks, len(tr.Users)),
		inter:   overlay.NewDenseMesh(cfg.InterLinks, len(tr.Users)),
		members: make([]overlay.Members, len(tr.Channels)),
		nodes:   make([]nodeState, len(tr.Users)),
		prev:    make([]int32, len(tr.Users)*(cfg.InnerLinks+cfg.InterLinks)),
		caches:  vod.NewCaches(len(tr.Users), cfg.CacheVideos),
		byCat:   make([][]trace.ChannelID, tr.Categories),
		subs:    make([][]trace.ChannelID, len(tr.Users)),
		scratch: *overlay.NewFloodScratch(len(tr.Users)),
		brk:     health.NewSet(health.DefaultConfig(), len(tr.Users)),
	}
	for i := range tr.Channels {
		ch := &tr.Channels[i]
		if c := int(ch.Primary); c >= 0 && c < len(s.byCat) {
			s.byCat[c] = append(s.byCat[c], ch.ID)
		}
	}
	for i := range tr.Users {
		u := &tr.Users[i]
		node := int(u.ID)
		s.nodes[node] = nodeState{home: -1, slot: -1}
		s.subs[node] = u.Subscriptions
	}
	return s, nil
}

// SetSpanBase namespaces the span ids this system assigns: every id is
// base|seq. The category partition gives each community cell a disjoint
// base so spans stay unique across one merged trace; one-cell runs
// keep the zero base.
func (s *System) SetSpanBase(base uint64) { s.SpanBase = base }

// Join implements vod.Protocol: the node comes online and first tries to
// reconnect to its previous neighbours; if none remain, it stays unattached
// until its first request, which contacts the server as an initial join.
func (s *System) Join(node int) {
	if !s.Arrive(node) {
		return
	}
	// Re-registration is positive evidence of liveness: clear every
	// observer's breaker for this node, skipping probation.
	s.brk.Reset(node)
	st := &s.nodes[node]
	if st.home < 0 {
		return
	}
	// Drop stale mesh edges left by an earlier abrupt failure.
	s.prune(node)
	reconnected := false
	inner := int(st.prevInner)
	prev := s.prevRow(node)[:inner+int(st.prevInter)]
	for _, nb := range prev[:inner] {
		if nb := int(nb); s.Online(nb) && s.nodes[nb].home == st.home {
			if s.inner.Connected(node, nb) || s.inner.Connect(node, nb) {
				reconnected = true
			}
		}
	}
	for _, nb := range prev[inner:] {
		if nb := int(nb); s.Online(nb) {
			if s.inter.Connected(node, nb) || s.inter.Connect(node, nb) {
				reconnected = true
			}
		}
	}
	if reconnected {
		s.enroll(node)
		return
	}
	// No previous neighbour survived: rejoin from scratch via the
	// server on the next request.
	s.detach(node)
}

// Leave implements vod.Protocol: a graceful departure notifies neighbours,
// which update their links immediately.
func (s *System) Leave(node int) {
	if !s.Depart(node, obs.KindLeave) {
		return
	}
	s.rememberNeighbors(node)
	s.leaveHome(node)
	s.inter.RemoveNode(node)
}

// Fail implements vod.Protocol: an abrupt departure. The node disappears
// from the member sets (it no longer answers), but neighbours keep their
// dead links until a maintenance probe notices.
func (s *System) Fail(node int) {
	if !s.Depart(node, obs.KindFail) {
		return
	}
	s.rememberNeighbors(node)
	s.unenroll(node)
	st := &s.nodes[node]
	// Connect links online nodes and Leave cuts every edge: only a Fail
	// leaves a link to an offline node, at each neighbour just remembered.
	for _, nb := range s.prevRow(node)[:int(st.prevInner)+int(st.prevInter)] {
		s.nodes[nb].suspect = true
	}
}

// prevRow returns the node's row of remembered neighbours.
func (s *System) prevRow(node int) []int32 {
	w := s.cfg.InnerLinks + s.cfg.InterLinks
	return s.prev[node*w : (node+1)*w]
}

// rememberNeighbors saves the departing node's links into its row. Each
// mesh bounds a node's degree by its link budget, so both fit.
func (s *System) rememberNeighbors(node int) {
	st, prev := &s.nodes[node], s.prevRow(node)
	inner, inter := s.inner.NeighborsView(node), s.inter.NeighborsView(node)
	for i, nb := range inner {
		prev[i] = int32(nb)
	}
	for i, nb := range inter {
		prev[len(inner)+i] = int32(nb)
	}
	st.prevInner, st.prevInter = uint8(len(inner)), uint8(len(inter))
}

// detach removes a node from its overlays entirely (used when switching
// channels or when a rejoin falls back to the server path).
func (s *System) detach(node int) {
	s.leaveHome(node)
	s.nodes[node].home = -1
}

// leaveHome drops the node's inner-links and membership in its home overlay
// but still remembers the channel, so a later session can try to reconnect.
func (s *System) leaveHome(node int) {
	if s.nodes[node].home >= 0 {
		s.inner.RemoveNode(node)
		s.unenroll(node)
	}
}

// enroll adds the node to its home channel's member set unless it is there.
func (s *System) enroll(node int) {
	if st := &s.nodes[node]; st.slot < 0 {
		st.slot = int32(s.members[st.home].Add(node))
	}
}

// unenroll takes the node out of its home channel's member set, if there,
// and gives the member moved into its slot that slot.
func (s *System) unenroll(node int) {
	st := &s.nodes[node]
	if st.slot < 0 {
		return
	}
	if moved := s.members[st.home].Remove(int(st.slot)); moved >= 0 {
		s.nodes[moved].slot = st.slot
	}
	st.slot = -1
}

// prune removes a suspect node's mesh edges to offline neighbours — what a
// probe round or a fresh session's reconnection attempt discovers.
func (s *System) prune(node int) {
	st := &s.nodes[node]
	if !st.suspect {
		return
	}
	st.suspect = false
	before := s.Links(node)
	s.inner.Prune(node, s.Online)
	s.inter.Prune(node, s.Online)
	s.Ctr.LinksPruned += uint64(before - s.Links(node))
}

// Probe implements the periodic structure maintenance of §IV-A: the node
// checks its neighbours, drops the dead ones and replenishes links. It
// returns the number of probe messages sent, one per link.
func (s *System) Probe(node int) int {
	if !s.Online(node) {
		return 0
	}
	msgs := s.Links(node)
	s.prune(node)
	s.replenish(node)
	s.Probed(node, msgs)
	return msgs
}

// replenish tops up inner links from the home channel's online members and
// inter links from sibling channels of the home category.
func (s *System) replenish(node int) {
	home := s.nodes[node].home
	if home < 0 {
		return
	}
	members := &s.members[home]
	for attempts := 0; !s.inner.Full(node) && attempts < 2*s.cfg.InnerLinks; attempts++ {
		cand := members.Random(s.RNG, node)
		if cand < 0 {
			break
		}
		s.inner.Connect(node, cand)
	}
	s.seedInterLinks(node, s.channelCategory(home))
}

// Links implements vod.Protocol: the node's maintenance overhead is the
// total number of overlay links it holds (inner + inter).
func (s *System) Links(node int) int {
	return s.inner.Degree(node) + s.InterLinks(node)
}

// InterLinks returns the node's higher-level link count.
func (s *System) InterLinks(node int) int { return s.inter.Degree(node) }

func (s *System) channelCategory(ch trace.ChannelID) trace.CategoryID {
	c := s.Trace.Channel(ch)
	if c == nil {
		return -1
	}
	return c.Primary
}

// Subscribe adds a channel subscription at runtime. The paper requires
// users to "report their changes of subscribed channels" so the server can
// assist joins accurately; the server-side view updates immediately.
func (s *System) Subscribe(node int, ch trace.ChannelID) bool {
	if !s.Known(node) || s.Trace.Channel(ch) == nil {
		return false
	}
	if s.subscribed(node, ch) {
		return false
	}
	s.subs[node] = append(slices.Clip(s.subs[node]), ch) // clipped: always a fresh array
	return true
}
