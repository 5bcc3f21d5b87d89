package core

import "github.com/socialtube/socialtube/internal/vod"

// RepairNeighbors is active self-repair around a crashed node, the hook
// exp's Repairer drives a plan's DetectDelay after the Fail: every
// surviving neighbor drops its edge to the dead node and replaces links at
// once instead of at its next probe. It returns the replacement links
// created and the repair messages (one death confirmation per neighbor).
func (s *System) RepairNeighbors(dead int) (links, msgs int) {
	if !s.Known(dead) || s.Online(dead) {
		return 0, 0
	}
	// Drop the dead node's stale edges from both meshes. Fail already
	// saved them in its prev row, so a later rejoin can still
	// try to reconnect.
	nbs := append(append([]int(nil), s.inner.NeighborsView(dead)...), s.inter.NeighborsView(dead)...)
	s.inner.RemoveNode(dead)
	s.inter.RemoveNode(dead)
	if len(nbs) == 0 {
		return 0, 0
	}
	s.Ctr.LinksPruned += uint64(len(nbs))
	// A pair linked in both meshes appears twice; each neighbor runs
	// one repair round regardless.
	seen := make(map[int]struct{}, len(nbs))
	for _, nb := range nbs {
		if _, dup := seen[nb]; dup || !s.Online(nb) {
			continue
		}
		seen[nb] = struct{}{}
		msgs++
		before := s.Links(nb)
		s.replenish(nb) // only ever adds links
		links += s.Links(nb) - before
	}
	s.Repaired(dead, links, msgs)
	return links, msgs
}

// Reseed refreshes a rejoining node's prefetched prefixes: §IV-B's
// channel-facilitated prefetching re-runs against the home channel's
// current top-M list, which the downtime may have left stale. It
// returns the number of prefixes newly stored. This is the hook
// internal/exp drives through its Reseeder interface on rejoin.
func (s *System) Reseed(node int) int {
	if !s.Online(node) {
		return 0
	}
	// An unattached node (home -1) has no top-M list, so it picks nothing.
	s.topBuf = vod.PickPrefetch(s.topBuf[:0], s.topM(s.nodes[node].home), s.cfg.PrefetchCount, s.caches.Cache(node).HasPrefix)
	for _, v := range s.topBuf {
		s.caches.Cache(node).AddPrefix(v)
	}
	s.Ctr.PrefetchReseeds += uint64(len(s.topBuf))
	return len(s.topBuf)
}
