// Package ctrl is the control-plane layer behind the emulated cluster:
// a rendezvous-hash ring mapping channel keys to tracker shards, a
// versioned membership table with tombstones that replicas reconcile by
// anti-entropy gossip, and a seeded sibling selector driving the gossip
// schedule.
//
// The paper's per-community hierarchy hands the control plane its natural
// shard key: every tracker-path operation is keyed by the channel (or by
// the channel owning the video), the same key the sharded event engine
// partitions on. Sharding by channel keeps each community's membership
// state on one shard, so a join and the lookups it feeds never straddle
// shards.
//
// Replicas of one shard are deliberately NOT in the ring: the ring hashes
// channels to shard indices only, so growing a shard from one replica to
// three never moves a single channel. Replica choice is a client-side
// failover walk over the shard's endpoint list.
package ctrl

import (
	"fmt"
	"sort"

	"github.com/socialtube/socialtube/internal/dist"
)

// Ring maps int64 keys (channel ids) to shard indices by rendezvous
// (highest-random-weight) hashing: every key scores each shard with a
// seeded mix and picks the argmax. Deterministic for one (seed, shards)
// pair, uniform in the limit, and minimally disruptive when a shard is
// added — only keys whose new shard wins move.
type Ring struct {
	seed   int64
	shards int
}

// NewRing builds a ring over shards shards. shards must be >= 1.
func NewRing(seed int64, shards int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("ctrl: ring needs >= 1 shard, got %d", shards)
	}
	return &Ring{seed: seed, shards: shards}, nil
}

// Owner returns the shard index in [0, Shards()) owning key.
func (r *Ring) Owner(key int64) int {
	if r.shards == 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for s := 0; s < r.shards; s++ {
		score := dist.Mix64(uint64(r.seed)*0x9E3779B97F4A7C15 ^ uint64(key)<<1 ^ uint64(s)*0xBF58476D1CE4E5B9)
		if s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// OwnerExcluding returns the shard owning key when the shards named by
// the dead bitmask (bit s set = shard s dead) are removed from the ring:
// the HRW argmax over the survivors only. Because rendezvous hashing
// scores every (key, shard) pair independently, removing a shard moves
// exactly that shard's keys — each surviving key's argmax is unchanged —
// and re-adding it restores the original assignment bit for bit. With an
// empty mask, or one that would kill every shard, it falls back to the
// plain owner (a caller with a nonsense mask gets the healthy answer,
// not a panic). Shards >= 64 are always treated as live.
func (r *Ring) OwnerExcluding(key int64, dead uint64) int {
	if dead == 0 || r.shards == 1 {
		return r.Owner(key)
	}
	best, bestScore, found := 0, uint64(0), false
	for s := 0; s < r.shards; s++ {
		if s < 64 && dead&(1<<uint(s)) != 0 {
			continue
		}
		score := dist.Mix64(uint64(r.seed)*0x9E3779B97F4A7C15 ^ uint64(key)<<1 ^ uint64(s)*0xBF58476D1CE4E5B9)
		if !found || score > bestScore {
			best, bestScore, found = s, score, true
		}
	}
	if !found {
		return r.Owner(key)
	}
	return best
}

// Gossiper yields the anti-entropy partner schedule for one replica: a
// seeded rotation over its siblings (the other replicas of the same
// shard). Deterministic for one seed, so gossip convergence tests and
// same-seed cluster runs replay identically.
type Gossiper struct {
	siblings []int
	next     int
}

// NewGossiper builds a partner schedule for replica self among n replicas
// of one shard. Returns nil when there is nothing to gossip with (n < 2).
func NewGossiper(seed int64, self, n int) *Gossiper {
	if n < 2 || self < 0 || self >= n {
		return nil
	}
	sib := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != self {
			sib = append(sib, i)
		}
	}
	// A seeded rotation start keeps replicas from thundering at the same
	// sibling; the walk itself is round-robin so no sibling starves.
	off := int(dist.Mix64(uint64(seed)^uint64(self)*0x9E3779B97F4A7C15) % uint64(len(sib)))
	sort.Ints(sib)
	g := &Gossiper{siblings: sib, next: off}
	return g
}

// Next returns the replica index to gossip with this round.
func (g *Gossiper) Next() int {
	p := g.siblings[g.next%len(g.siblings)]
	g.next++
	return p
}
