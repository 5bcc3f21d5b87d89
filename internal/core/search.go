package core

import (
	"slices"

	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// flood runs one TTL-scoped flood of origin's channel overlay for v — the
// inner mesh reaches only nodes that share origin's home — through the
// system's reusable scratch. Neither closure escapes: zero allocation per
// query.
func (s *System) flood(origin int, v trace.VideoID) overlay.FloodResult {
	return s.scratch.Flood(origin, s.cfg.TTL, func(n int) []int {
		if !s.Online(n) {
			return nil // a failed node cannot forward
		}
		return s.inner.NeighborsView(n)
	}, func(n int) bool { return s.holds(n, v) })
}

// holds reports whether n is online with v in its cache in full.
func (s *System) holds(n int, v trace.VideoID) bool { return s.Online(n) && s.caches.HasFull(n, v) }

// breakerAllow / breakerFail / breakerOK wrap the breaker set, mirroring
// its transition statistics into the dense counter block so snapshots
// always carry them. Healthy runs only take the closed-breaker path, which
// costs no message and no draw; the set is pre-sized, so none allocates.
func (s *System) breakerAllow(id int) bool {
	ok := s.brk.Allow(id, s.Now())
	s.Ctr.BreakerSkips = s.brk.Skips
	s.Ctr.BreakerProbes = s.brk.Probes
	return ok
}

func (s *System) breakerFail(id int) {
	s.brk.Failure(id, s.Now())
	s.Ctr.BreakerOpens = s.brk.Opens
}

func (s *System) breakerOK(id int) {
	s.brk.Success(id)
	s.Ctr.BreakerRecoveries = s.brk.Recoveries
}

// Request implements vod.Protocol: locate the video per Algorithm 1 inside
// the chassis' request bracket (span before, accounting and serve event
// after).
func (s *System) Request(node int, v trace.VideoID) vod.RequestResult {
	s.BeginRequest()
	return s.Account(node, v, s.locate(node, v))
}

// locate follows Algorithm 1 of the paper: the node queries its channel
// overlay with the TTL, then its category cluster (each inter-neighbour
// forwards within its own channel overlay with the TTL), and finally resorts
// to the server.
func (s *System) locate(node int, v trace.VideoID) vod.RequestResult {
	video := s.Trace.Video(v)
	if !s.Online(node) || video == nil {
		return vod.RequestResult{Source: vod.SourceServer}
	}
	st := &s.nodes[node]
	res := vod.RequestResult{PrefixCached: s.caches.HasPrefix(node, v)}
	if res.PrefixCached && s.caches.HasFull(node, v) {
		res.Source = vod.SourceCache
		return res
	}
	s.ensureAttached(node, video.Channel)

	// Phase 1: flood the node's channel overlay along inner-links.
	if st.home >= 0 {
		s.Ctr.LookupsChannel++
		fr := s.flood(node, v)
		res.Messages += fr.Messages
		s.Flooded(node, v, obs.LevelChannel, fr.OK, fr.Found, fr.Hops, fr.Messages)
		if fr.OK {
			res.Source, res.Provider, res.Hops = vod.SourcePeer, fr.Found, fr.Hops
			// The requester connects to the provider it found
			// (§IV-A), building inner-links up to N_l.
			s.inner.Connect(node, fr.Found)
			return res
		}
		s.Ctr.TTLExhausted++
	}

	// Phase 2: query inter-neighbours; each forwards within its own
	// channel overlay for TTL hops. The view is safe to range over: the
	// inter mesh is only mutated right before returning. catMsgs tracks
	// the category-level message volume for the counters and the flood
	// event (a request that never leaves its channel emits none).
	s.Ctr.LookupsCategory++
	catMsgs := 0
	for _, j := range s.inter.NeighborsView(node) {
		if !s.breakerAllow(j) {
			continue // open breaker: no message spent on a dead link
		}
		res.Messages++
		catMsgs++
		if !s.Online(j) {
			// The contact timed out: the breaker absorbs the strike so
			// repeated requests stop paying for this neighbour before
			// the next probe round prunes it.
			s.breakerFail(j)
			continue
		}
		s.breakerOK(j)
		provider, hops := j, 1
		if !s.holds(j, v) {
			if s.nodes[j].home < 0 {
				continue
			}
			fr := s.flood(j, v)
			res.Messages += fr.Messages
			catMsgs += fr.Messages
			if !fr.OK {
				s.Ctr.TTLExhausted++
				continue
			}
			provider, hops = fr.Found, 1+fr.Hops
		}
		s.Flooded(node, v, obs.LevelCategory, true, provider, hops, catMsgs)
		res.Source, res.Provider, res.Hops = vod.SourcePeer, provider, hops
		// Connect to the provider if inter-link budget remains (j
		// itself already is a neighbour).
		s.inter.Connect(node, provider)
		return res
	}
	if catMsgs > 0 {
		s.Flooded(node, v, obs.LevelCategory, false, -1, 0, catMsgs)
	}

	// The request now reaches the server, whether it assists (phase 2.5)
	// or serves the video itself (phase 3).
	s.Ctr.LookupsServer++

	// Phase 2.5: before serving the video itself, the server recommends
	// a node in the video's own channel overlay ("including a node with
	// the video", §IV-A) — the path that rescues non-subscribers and
	// cross-channel views.
	if st.home != video.Channel {
		provider, hops, msgs, ok := s.searchChannelOverlay(node, video.Channel, v)
		res.Messages += msgs
		if msgs > 0 {
			s.Flooded(node, v, obs.LevelServer, ok, provider, hops, msgs)
			if ok {
				res.Source, res.Provider, res.Hops = vod.SourcePeer, provider, hops
				s.inter.Connect(node, provider)
				return res
			}
			s.Ctr.TTLExhausted++
		}
	}

	// Phase 3: the server serves the video.
	res.Source = vod.SourceServer
	return res
}

// searchChannelOverlay queries a server-recommended member of the channel's
// overlay and lets the query for v flood that overlay with the TTL.
func (s *System) searchChannelOverlay(node int, ch trace.ChannelID, v trace.VideoID) (provider, hops, msgs int, ok bool) {
	entry := s.members[ch].Random(s.RNG, node)
	if entry < 0 || !s.breakerAllow(entry) {
		return 0, 0, 0, false
	}
	if !s.Online(entry) {
		// Member sets shed failed nodes, but a recommendation can race a
		// crash; the breaker remembers the dead entry point.
		s.breakerFail(entry)
		return 0, 0, 0, false
	}
	s.breakerOK(entry)
	msgs = 1 // the contact with the recommended entry node
	if s.holds(entry, v) {
		return entry, 1, msgs, true
	}
	fr := s.flood(entry, v) // entry is a member of ch's overlay: its home is ch
	msgs += fr.Messages
	if fr.OK {
		return fr.Found, 1 + fr.Hops, msgs, true
	}
	return 0, 0, msgs, false
}

// ensureAttached places the node in the overlays relevant to the requested
// channel. Subscribers join (or switch to) the channel's lower-level
// overlay; non-subscribers are instead given inter-links into the channel's
// category by the server, per §IV-A.
func (s *System) ensureAttached(node int, ch trace.ChannelID) {
	st := &s.nodes[node]
	cat := s.channelCategory(ch)
	if !s.subscribed(node, ch) {
		// Non-subscriber: keep the current home overlay; the server
		// recommends common-interest peers (one per channel in the
		// category) for inter-links.
		s.seedInterLinks(node, cat)
		return
	}
	if st.home == ch {
		s.enroll(node)
		s.replenish(node)
		return
	}
	// Switching channel overlays: leave the old one; drop inter-links
	// too when the interest category changes, since the node maintains
	// links only within its channel and category (§IV-A).
	oldCat := s.channelCategory(st.home) // -1 when unattached
	s.detach(node)
	if oldCat != cat {
		s.inter.RemoveNode(node)
	}
	st.home = ch
	s.enroll(node)
	// The server assists the join with inner neighbours from the channel
	// overlay and inter neighbours across the category's channels; links
	// reach the steady-state N_l + N_h Fig. 18 observes ("15 links at
	// all times through their sessions after the initial phase").
	s.replenish(node)
}

// seedInterLinks asks the server for one random online node per channel in
// the category until the node's inter-link budget N_h is filled.
func (s *System) seedInterLinks(node int, cat trace.CategoryID) {
	if cat < 0 || int(cat) >= len(s.byCat) || s.inter.Full(node) {
		return
	}
	chans := s.byCat[cat]
	st := &s.nodes[node]
	// Random channel order, bounded attempts: the server recommends one
	// node per sibling channel.
	s.permBuf = s.RNG.PermInto(s.permBuf, len(chans))
	for _, idx := range s.permBuf {
		if s.inter.Full(node) {
			return
		}
		ch := chans[idx]
		if st.home == ch {
			continue // inner overlay already covers the home channel
		}
		cand := s.members[ch].Random(s.RNG, node)
		if cand < 0 || !s.Online(cand) {
			continue
		}
		s.inter.Connect(node, cand)
	}
}

// subscribed reports whether the node's user subscribes to the channel.
func (s *System) subscribed(node int, ch trace.ChannelID) bool {
	return s.Known(node) && slices.Contains(s.subs[node], ch)
}

// Finish implements vod.Protocol: the node caches the watched video and
// prefetches the first chunks of the most popular videos of the channel it
// is watching (§IV-B's channel-facilitated prefetching).
func (s *System) Finish(node int, v trace.VideoID) {
	video := s.Trace.Video(v)
	if !s.Known(node) || video == nil {
		return
	}
	s.caches.AddFull(node, v)
	// §IV-B's pick: of the top M, those the cache holds no first chunk of
	// (the video just watched is held in full, hence never chosen).
	s.topBuf = vod.PickPrefetch(s.topBuf[:0], s.topM(video.Channel), s.cfg.PrefetchCount, func(v trace.VideoID) bool { return s.caches.HasPrefix(node, v) })
	for _, top := range s.topBuf {
		s.caches.Cache(node).AddPrefix(top)
		s.Prefetched(node, top)
	}
}

// topM is the popularity list the server publishes for prefetching: the
// channel's M most popular videos, the prefix of its rank-ordered list
// (empty for no channel).
func (s *System) topM(id trace.ChannelID) []trace.VideoID {
	ch := s.Trace.Channel(id)
	if ch == nil {
		return nil
	}
	return ch.Videos[:min(len(ch.Videos), s.cfg.PrefetchCount)]
}
