package core

import (
	"slices"

	"github.com/socialtube/socialtube/internal/trace"
)

// Subscriptions returns the node's current subscription set in ascending
// order (a copy). Only tests read a node's set back; the protocol asks
// subscribed.
func (s *System) Subscriptions(node int) []trace.ChannelID {
	if node < 0 || node >= len(s.subs) {
		return nil
	}
	out := slices.Clone(s.subs[node])
	slices.Sort(out)
	return slices.Compact(out)
}
