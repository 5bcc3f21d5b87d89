package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
)

// fullPruneProbe is Probe without the suspect gate: every probe prunes
// every link to an offline neighbour, as the maintenance round of §IV-A
// states it.
func (s *System) fullPruneProbe(node int) int {
	if !s.Online(node) {
		return 0
	}
	before := s.Links(node)
	msgs := s.inner.Prune(node, s.Online) + s.inter.Prune(node, s.Online)
	s.Ctr.LinksPruned += uint64(before - s.Links(node))
	s.replenish(node)
	s.Probed(node, msgs)
	return msgs
}

// modelTrace is the baseline package's small trace: 400 users over 50
// channels in 6 categories.
func modelTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 31
	cfg.Channels = 50
	cfg.Users = 400
	cfg.Categories = 6
	cfg.MaxInterestsPerUser = 6
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestProbeMatchesFullPrune drives two systems through one random sequence
// of Join, Leave, Fail, RepairNeighbors, Request, Finish and Probe over a
// pool of users sharing one category. One probes with Probe, which prunes
// only a suspect node; the other with fullPruneProbe, and its Join always
// prunes. After every step every return value, the counter block and
// every node's links must agree, and no online node that is not suspect
// may link an offline one.
func TestProbeMatchesFullPrune(t *testing.T) {
	const seeds, steps, poolSize = 200, 500, 24
	tr := modelTrace(t)
	cat := tr.Channels[0].Primary
	var chans []*trace.Channel
	for i := range tr.Channels {
		if ch := &tr.Channels[i]; ch.Primary == cat && len(ch.Videos) > 0 && len(chans) < 4 {
			chans = append(chans, ch)
		}
	}
	var pool []int
	for _, u := range tr.Users {
		if len(pool) < poolSize && slices.ContainsFunc(chans, func(ch *trace.Channel) bool {
			return slices.Contains(u.Subscriptions, ch.ID)
		}) {
			pool = append(pool, int(u.ID))
		}
	}
	var pruned, deadSeen uint64 // links a probe or Join pruned; offline neighbours seen
	for seed := uint64(1); seed <= seeds; seed++ {
		sys, ref := newSystem(t, tr, nil), newSystem(t, tr, nil)
		g := rand.New(rand.NewPCG(seed, 0))
		for step := 0; step < steps; step++ {
			n := pool[g.IntN(len(pool))]
			ch := chans[g.IntN(len(chans))]
			v := ch.Videos[g.IntN(min(3, len(ch.Videos)))]
			var got, want any
			before := sys.Ctr.LinksPruned
			switch op := g.IntN(16); {
			case op < 3:
				sys.Join(n)
				ref.nodes[n].suspect = true // the reference's Join prunes whatever it holds
				ref.Join(n)
				pruned += sys.Ctr.LinksPruned - before
			case op < 4:
				sys.Leave(n)
				ref.Leave(n)
			case op < 6:
				sys.Fail(n)
				ref.Fail(n)
			case op < 7:
				l, m := sys.RepairNeighbors(n)
				got = [2]int{l, m}
				l, m = ref.RepairNeighbors(n)
				want = [2]int{l, m}
			case op < 11:
				got, want = sys.Request(n, v), ref.Request(n, v)
			case op < 13:
				sys.Finish(n, v)
				ref.Finish(n, v)
			default:
				got, want = sys.Probe(n), ref.fullPruneProbe(n)
				pruned += sys.Ctr.LinksPruned - before
			}
			if got != want {
				t.Fatalf("seed %d step %d node %d: got %v, full prune %v", seed, step, n, got, want)
			}
			if sys.Ctr != ref.Ctr {
				t.Fatalf("seed %d step %d: counters %+v, full prune %+v", seed, step, sys.Ctr, ref.Ctr)
			}
			for _, n := range pool {
				inner, inter := sys.inner.NeighborsView(n), sys.inter.NeighborsView(n)
				if sys.Links(n) != ref.Links(n) || !slices.Equal(inner, ref.inner.NeighborsView(n)) ||
					!slices.Equal(inter, ref.inter.NeighborsView(n)) {
					t.Fatalf("seed %d step %d node %d: links %v+%v, full prune %v+%v", seed, step, n,
						inner, inter, ref.inner.NeighborsView(n), ref.inter.NeighborsView(n))
				}
				for _, nb := range append(inner[:len(inner):len(inner)], inter...) {
					if !sys.Online(nb) && sys.Online(n) {
						deadSeen++
						if !sys.nodes[n].suspect {
							t.Fatalf("seed %d step %d: node %d is not suspect but links offline %d", seed, step, n, nb)
						}
					}
				}
			}
		}
		for n := range tr.Users {
			if sys.Links(n) != ref.Links(n) {
				t.Fatalf("seed %d: node %d ends with %d links, full prune %d", seed, n, sys.Links(n), ref.Links(n))
			}
		}
	}
	if pruned < seeds || deadSeen == 0 {
		t.Fatalf("the sequences pruned %d links and saw %d dead ones: nothing was tested", pruned, deadSeen)
	}
}
