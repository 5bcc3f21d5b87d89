package core

import "github.com/socialtube/socialtube/internal/trace"

// RemoteLookup runs the server-assisted phase of Algorithm 1 (flood a member
// of the video's channel overlay with the TTL) for a requester in another
// community cell. It builds no requester-side links; the provider id is
// local to this cell, for accounting, and msgs counts this cell's messages
// only. span is the requester's span id, carried by the query event.
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
