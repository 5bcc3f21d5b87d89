package ctrl

import (
	"math/rand"
	"testing"
)

// exchange is one sync round trip as a tracker runs it: the initiator's
// beats and verdicts reach the responder, whose own come back.
func exchange(from, to *Liveness) {
	to.MergeBeats(from.Beats())
	to.MergeStatus(from.Status(), from.Epoch())
	from.MergeBeats(to.Beats())
	from.MergeStatus(to.Status(), to.Epoch())
}

// TestLivenessStaggeredStartNoVerdict: the two shards of a 2×1 plane
// start k rounds apart, k from 0 to 4 × suspicion, and then gossip every
// round in a seeded order. Neither side may declare the other dead or move
// the ring epoch: before the late shard's first beat it has not started,
// and after it both are alive. Suspicion below 3 rounds is left out: a
// flip in the exchange order alone can leave a live shard's newest beat
// two rounds old.
func TestLivenessStaggeredStartNoVerdict(t *testing.T) {
	for _, sus := range []int{3, 5} {
		for k := 0; k <= 4*sus; k++ {
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				early, late := NewLiveness(2, 0, 0, sus), NewLiveness(2, 1, 0, sus)
				// One round of each started element per step, in a seeded
				// order; an element's round is its Tick, then its sync with
				// the other shard once that one listens.
				for step := 0; step < k+4*sus; step++ {
					sides := []*Liveness{early}
					if step >= k {
						sides = append(sides, late)
					}
					rng.Shuffle(len(sides), func(i, j int) { sides[i], sides[j] = sides[j], sides[i] })
					for _, l := range sides {
						if died := l.Tick(); len(died) > 0 {
							t.Fatalf("suspicion %d, start %d rounds late, seed %d, step %d: shard %v declared dead",
								sus, k, seed, step, died)
						}
						if len(sides) == 2 {
							other := early
							if l == early {
								other = late
							}
							exchange(l, other)
						}
					}
					if early.Epoch() != 0 || late.Epoch() != 0 {
						t.Fatalf("suspicion %d, start %d rounds late, seed %d, step %d: epochs %d and %d, want 0",
							sus, k, seed, step, early.Epoch(), late.Epoch())
					}
				}
			}
		}
	}
}

// TestLivenessNeverStartedShardDeclared: a shard that never starts is
// still declared, at exactly neverHeardGrace suspicion windows of the
// detecting replica's rounds, and only once.
func TestLivenessNeverStartedShardDeclared(t *testing.T) {
	for _, sus := range []int{1, 2, 3, 5} {
		l := NewLiveness(2, 0, 0, sus)
		bound := neverHeardGrace * sus
		diedAt := 0
		for round := 1; round <= 2*bound; round++ {
			if died := l.Tick(); len(died) > 0 {
				if diedAt != 0 || died[0] != 1 {
					t.Fatalf("suspicion %d: round %d declared %v after round %d", sus, round, died, diedAt)
				}
				diedAt = round
			}
		}
		if diedAt != bound {
			t.Fatalf("suspicion %d: never-started shard declared at round %d, want %d", sus, diedAt, bound)
		}
		if l.Epoch() != 1 || l.DeadMask() != 1<<1 {
			t.Fatalf("suspicion %d: epoch %d, dead mask %b; want 1 and shard 1", sus, l.Epoch(), l.DeadMask())
		}
	}
}
