package core

import "github.com/socialtube/socialtube/internal/trace"

// RemoteLookup answers a cross-community lookup arriving at this
// community's server: it runs the server-assisted phase of Algorithm 1 —
// pick a member of the video's channel overlay and flood it with the TTL —
// on behalf of a requester that lives in another community partition. The
// requester is not a node here, so no requester-side links are built; the
// provider id it returns is local to this community and only meaningful
// for accounting. msgs counts the query messages spent inside this
// community (the forwarding layer adds its own inter-community messages).
//
// span is the requester's span id (assigned by its home cell's Request);
// the query event this side emits carries it.
func (s *System) RemoteLookup(span uint64, v trace.VideoID) (provider, hops, msgs int, ok bool) {
	video := s.Trace.Video(v)
	if video == nil {
		return 0, 0, 0, false
	}
	s.Ctr.LookupsServer++
	provider, hops, msgs, ok = s.searchChannelOverlay(-1, video.Channel, v)
	s.Queried(span, v, ok, provider, hops, msgs)
	if !ok && msgs > 0 {
		s.Ctr.TTLExhausted++
	}
	return provider, hops, msgs, ok
}
