package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// System is the SocialTube protocol over a trace. Node ids are user ids
// from the trace. System implements vod.Protocol; it is single-threaded,
// driven by the experiment engine.
//
// Node ids are dense (trace users are 0..len(Users)-1), so all per-node
// state lives in slices indexed by node id rather than maps — the flood
// hot path touches no hash buckets and does no per-query allocation.
type System struct {
	cfg Config
	tr  *trace.Trace
	g   *dist.RNG

	// inner holds one lower-level mesh per channel overlay, each node
	// bounded to N_l inner-links.
	inner map[trace.ChannelID]*overlay.Mesh
	// inter is the higher-level mesh; links connect nodes across channels
	// of the same category, bounded to N_h per node.
	inter *overlay.Mesh
	// members tracks online nodes per channel overlay — the state the
	// server keeps so it can assist joins (much less than NetTube's
	// per-video tracking, as §IV-A notes).
	members map[trace.ChannelID]*overlay.Members
	// nodes is indexed by node id.
	nodes []nodeState
	// byCat indexes channels by primary category for inter-link seeding.
	byCat map[trace.CategoryID][]trace.ChannelID
	// subs is each node's subscription set, indexed by node id.
	subs []map[trace.ChannelID]bool

	// scratch is the reusable flood state; one flood runs at a time, so a
	// single scratch serves every query the system issues.
	scratch overlay.FloodScratch
	// floodMesh is the mesh floodNeighbors reads; Request points it at the
	// overlay being searched so the closure is built once, not per flood.
	floodMesh      *overlay.Mesh
	floodNeighbors func(int) []int
	// matchVideo is the video matchNode tests for, set per request.
	matchVideo trace.VideoID
	matchNode  func(int) bool
	// keepOnline is the probe/repair predicate for Mesh.Prune.
	keepOnline func(int) bool

	// brk is the per-peer circuit breaker, pre-sized to the population so
	// every operation stays allocation-free on the Request hot path. The
	// sim is single-threaded and omniscient, so one shared Set stands in
	// for every node's local view; virtual time (s.now) drives windows.
	brk *health.Set

	// ctr is the dense observability counter block; the simulator
	// increments it single-threaded (plain ++), see obs.Counters.
	ctr obs.Counters
	// tracer receives protocol events; nil (the default) disables tracing
	// at the cost of one branch per emit site.
	tracer obs.Tracer
	// now is the experiment engine's virtual clock (SetNow), stamping
	// trace events.
	now time.Duration

	// spanBase is OR-ed into every span id this system assigns
	// (SetSpanBase gives each sharded cell a disjoint id range);
	// spanSeq counts requests; span is the id of the request currently
	// being served, stamped on every event in its causal chain.
	spanBase uint64
	spanSeq  uint64
	span     uint64
}

var _ vod.Protocol = (*System)(nil)

// nodeState is one peer's protocol state. The cache survives offline
// periods ("nodes store their cached videos for their next session").
type nodeState struct {
	user   *trace.User
	online bool
	cache  *vod.Cache
	// home is the channel overlay the node currently belongs to (the
	// channel it is watching); -1 when unattached.
	home trace.ChannelID
	// prevInner/prevInter remember neighbours across sessions so a
	// returning node can reconnect without the server.
	prevInner []int
	prevInter []int
}

// New builds a SocialTube system over the trace.
func New(cfg Config, tr *trace.Trace) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("socialtube config: %w", err)
	}
	if tr == nil || len(tr.Users) == 0 {
		return nil, fmt.Errorf("%w: socialtube needs a non-empty trace", dist.ErrBadParameter)
	}
	s := &System{
		cfg:     cfg,
		tr:      tr,
		g:       dist.NewRNG(cfg.Seed),
		inner:   make(map[trace.ChannelID]*overlay.Mesh),
		inter:   overlay.NewMesh(cfg.InterLinks),
		members: make(map[trace.ChannelID]*overlay.Members),
		nodes:   make([]nodeState, len(tr.Users)),
		byCat:   make(map[trace.CategoryID][]trace.ChannelID),
		subs:    make([]map[trace.ChannelID]bool, len(tr.Users)),
		scratch: *overlay.NewFloodScratch(len(tr.Users)),
		brk: health.NewSet(health.Config{
			Threshold: cfg.BreakerThreshold,
			OpenFor:   cfg.BreakerOpenFor,
		}, len(tr.Users)),
	}
	for i := range tr.Channels {
		ch := &tr.Channels[i]
		s.byCat[ch.Primary] = append(s.byCat[ch.Primary], ch.ID)
	}
	for i := range tr.Users {
		u := &tr.Users[i]
		node := int(u.ID)
		s.nodes[node] = nodeState{
			user:  u,
			cache: vod.NewCache(cfg.CacheVideos),
			home:  -1,
		}
		set := make(map[trace.ChannelID]bool, len(u.Subscriptions))
		for _, ch := range u.Subscriptions {
			set[ch] = true
		}
		s.subs[node] = set
	}
	// The flood and probe closures are built once and steered through
	// System fields, so the per-request hot path allocates nothing.
	s.floodNeighbors = func(n int) []int {
		if !s.online(n) {
			return nil // a failed node cannot forward
		}
		return s.floodMesh.NeighborsView(n)
	}
	s.matchNode = func(n int) bool {
		st := s.state(n)
		return st != nil && st.online && st.cache.HasFull(s.matchVideo)
	}
	s.keepOnline = s.online
	return s, nil
}

// Name implements vod.Protocol.
func (s *System) Name() string { return "SocialTube" }

// ObsCounters implements obs.Instrumented.
func (s *System) ObsCounters() *obs.Counters { return &s.ctr }

// SetTracer implements obs.Traceable; a nil tracer disables tracing.
func (s *System) SetTracer(t obs.Tracer) { s.tracer = t }

// SetNow implements the experiment engine's clock hook (exp.Timed) so trace
// events carry virtual timestamps.
func (s *System) SetNow(now time.Duration) { s.now = now }

// SetSpanBase namespaces the span ids this system assigns: every id is
// base|seq. The category partition gives each community cell a disjoint
// base so spans stay unique across one merged trace; one-cell runs
// keep the zero base. Span ids depend only on request order, so they
// are deterministic for a given seed.
func (s *System) SetSpanBase(base uint64) { s.spanBase = base }

// nextSpan assigns the span id for a new request's causal chain.
func (s *System) nextSpan() uint64 {
	s.spanSeq++
	return s.spanBase | s.spanSeq
}

func (s *System) state(node int) *nodeState {
	if node < 0 || node >= len(s.nodes) {
		return nil
	}
	return &s.nodes[node]
}

func (s *System) innerMesh(ch trace.ChannelID) *overlay.Mesh {
	m, ok := s.inner[ch]
	if !ok {
		m = overlay.NewMesh(s.cfg.InnerLinks)
		s.inner[ch] = m
	}
	return m
}

func (s *System) memberSetOf(ch trace.ChannelID) *overlay.Members {
	m, ok := s.members[ch]
	if !ok {
		m = overlay.NewMembers()
		s.members[ch] = m
	}
	return m
}

// online reports whether a node is currently in the system.
func (s *System) online(node int) bool {
	return node >= 0 && node < len(s.nodes) && s.nodes[node].online
}

// Join implements vod.Protocol: the node comes online and first tries to
// reconnect to its previous neighbours; if none remain, it stays unattached
// until its first request, which contacts the server as an initial join.
func (s *System) Join(node int) {
	st := s.state(node)
	if st == nil || st.online {
		return
	}
	st.online = true
	// Re-registration is positive evidence of liveness: clear every
	// observer's breaker for this node, skipping probation.
	s.brk.Reset(node)
	s.ctr.OverlayJoins++
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{T: int64(s.now), Proto: "SocialTube", Kind: obs.KindJoin, Node: node, Video: -1, Provider: -1})
	}
	if st.home >= 0 {
		// Drop stale mesh edges left by an earlier abrupt failure.
		s.dropDeadLinks(node)
		reconnected := false
		mesh := s.innerMesh(st.home)
		for _, nb := range st.prevInner {
			if s.online(nb) && s.sameHome(nb, st.home) {
				if mesh.Connected(node, nb) || mesh.Connect(node, nb) {
					reconnected = true
				}
			}
		}
		for _, nb := range st.prevInter {
			if s.online(nb) {
				if s.inter.Connected(node, nb) || s.inter.Connect(node, nb) {
					reconnected = true
				}
			}
		}
		if reconnected {
			s.memberSetOf(st.home).Add(node)
			return
		}
		// No previous neighbour survived: rejoin from scratch via the
		// server on the next request.
		s.detach(node)
	}
}

func (s *System) sameHome(node int, ch trace.ChannelID) bool {
	st := s.state(node)
	return st != nil && st.home == ch
}

// Leave implements vod.Protocol: a graceful departure notifies neighbours,
// which update their links immediately.
func (s *System) Leave(node int) {
	st := s.state(node)
	if st == nil || !st.online {
		return
	}
	s.rememberNeighbors(node)
	if st.home >= 0 {
		s.innerMesh(st.home).RemoveNode(node)
		s.memberSetOf(st.home).Remove(node)
	}
	s.inter.RemoveNode(node)
	st.online = false
	s.ctr.OverlayLeaves++
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{T: int64(s.now), Proto: "SocialTube", Kind: obs.KindLeave, Node: node, Video: -1, Provider: -1})
	}
}

// Fail implements vod.Protocol: an abrupt departure. The node disappears
// from the member sets (it no longer answers), but neighbours keep their
// dead links until a maintenance probe notices.
func (s *System) Fail(node int) {
	st := s.state(node)
	if st == nil || !st.online {
		return
	}
	s.rememberNeighbors(node)
	if st.home >= 0 {
		s.memberSetOf(st.home).Remove(node)
	}
	st.online = false
	s.ctr.OverlayFails++
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{T: int64(s.now), Proto: "SocialTube", Kind: obs.KindFail, Node: node, Video: -1, Provider: -1})
	}
}

func (s *System) rememberNeighbors(node int) {
	st := s.state(node)
	st.prevInner = nil
	if st.home >= 0 {
		st.prevInner = s.innerMesh(st.home).Neighbors(node)
	}
	st.prevInter = s.inter.Neighbors(node)
}

// detach removes a node from its overlays entirely (used when switching
// channels or when a rejoin falls back to the server path).
func (s *System) detach(node int) {
	st := s.state(node)
	if st.home >= 0 {
		s.innerMesh(st.home).RemoveNode(node)
		s.memberSetOf(st.home).Remove(node)
	}
	st.home = -1
}

// dropDeadLinks removes the node's mesh edges to offline neighbours — what
// a probe round or a fresh session's reconnection attempt discovers.
func (s *System) dropDeadLinks(node int) {
	st := s.state(node)
	before := s.Links(node)
	if st.home >= 0 {
		s.innerMesh(st.home).Prune(node, s.keepOnline)
	}
	s.inter.Prune(node, s.keepOnline)
	s.ctr.LinksPruned += uint64(before - s.Links(node))
}

// Probe implements the periodic structure maintenance of §IV-A: the node
// checks its neighbours, drops the dead ones and replenishes links. It
// returns the number of probe messages sent.
func (s *System) Probe(node int) int {
	st := s.state(node)
	if st == nil || !st.online {
		return 0
	}
	msgs := 0
	before := s.Links(node)
	if st.home >= 0 {
		msgs += s.innerMesh(st.home).Prune(node, s.keepOnline)
	}
	msgs += s.inter.Prune(node, s.keepOnline)
	s.ctr.LinksPruned += uint64(before - s.Links(node))
	s.replenish(node)
	s.ctr.ProbeMsgs += uint64(msgs)
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{T: int64(s.now), Proto: "SocialTube", Kind: obs.KindProbe, Node: node, Video: -1, Provider: -1, Msgs: msgs})
	}
	return msgs
}

// replenish tops up inner links from the home channel's online members and
// inter links from sibling channels of the home category.
func (s *System) replenish(node int) {
	st := s.state(node)
	if st.home < 0 {
		return
	}
	mesh := s.innerMesh(st.home)
	members := s.memberSetOf(st.home)
	for attempts := 0; !mesh.Full(node) && attempts < 2*s.cfg.InnerLinks; attempts++ {
		cand := members.Random(s.g, node)
		if cand < 0 {
			break
		}
		mesh.Connect(node, cand)
	}
	s.seedInterLinks(node, s.channelCategory(st.home))
}

// Links implements vod.Protocol: the node's maintenance overhead is the
// total number of overlay links it holds (inner + inter).
func (s *System) Links(node int) int {
	st := s.state(node)
	if st == nil {
		return 0
	}
	n := s.inter.Degree(node)
	if st.home >= 0 {
		n += s.innerMesh(st.home).Degree(node)
	}
	return n
}

// InnerLinks returns the node's lower-level link count (tests/ablations).
func (s *System) InnerLinks(node int) int {
	st := s.state(node)
	if st == nil || st.home < 0 {
		return 0
	}
	return s.innerMesh(st.home).Degree(node)
}

// InterLinks returns the node's higher-level link count (tests/ablations).
func (s *System) InterLinks(node int) int { return s.inter.Degree(node) }

// Home returns the channel overlay the node currently belongs to (-1 when
// unattached).
func (s *System) Home(node int) trace.ChannelID {
	st := s.state(node)
	if st == nil {
		return -1
	}
	return st.home
}

// Cache exposes the node's cache (read-mostly; used by tests and the
// experiment engine for accounting).
func (s *System) Cache(node int) *vod.Cache {
	st := s.state(node)
	if st == nil {
		return nil
	}
	return st.cache
}

func (s *System) channelCategory(ch trace.ChannelID) trace.CategoryID {
	c := s.tr.Channel(ch)
	if c == nil {
		return -1
	}
	return c.Primary
}

// Subscribe adds a channel subscription at runtime. The paper requires
// users to "report their changes of subscribed channels" so the server can
// assist joins accurately; the server-side view updates immediately.
func (s *System) Subscribe(node int, ch trace.ChannelID) bool {
	st := s.state(node)
	if st == nil || s.tr.Channel(ch) == nil {
		return false
	}
	set := s.subs[node]
	if set == nil {
		set = make(map[trace.ChannelID]bool, 1)
		s.subs[node] = set
	}
	if set[ch] {
		return false
	}
	set[ch] = true
	return true
}

// Unsubscribe removes a channel subscription at runtime. A node
// unsubscribed from its home channel leaves that overlay: it no longer
// tends to watch the channel's videos, so keeping inner-links there would
// waste the link budget.
func (s *System) Unsubscribe(node int, ch trace.ChannelID) bool {
	st := s.state(node)
	if st == nil || !s.subs[node][ch] {
		return false
	}
	delete(s.subs[node], ch)
	if st.home == ch {
		s.detach(node)
	}
	return true
}

// Subscriptions returns the node's current subscription set in ascending
// order (a copy).
func (s *System) Subscriptions(node int) []trace.ChannelID {
	if node < 0 || node >= len(s.subs) {
		return nil
	}
	set := s.subs[node]
	out := make([]trace.ChannelID, 0, len(set))
	for ch := range set {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
