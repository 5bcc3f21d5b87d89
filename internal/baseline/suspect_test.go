package baseline

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// fullPruneProbe is Probe without the suspect gate: every probe prunes
// every joined overlay's links to offline neighbours.
func (n *NetTube) fullPruneProbe(node int) int {
	if !n.Online(node) {
		return 0
	}
	msgs, pruned := 0, 0
	for _, v := range n.nodes[node].joined {
		examined, removed := n.overlays.Prune(v, node, n.Online)
		msgs, pruned = msgs+examined, pruned+removed
	}
	n.Ctr.LinksPruned += uint64(pruned)
	n.Probed(node, msgs)
	return msgs
}

// searchedLinks is Links as one keyed search per joined overlay.
func (n *NetTube) searchedLinks(node int) int {
	total := 0
	for _, v := range n.joined(node) {
		total += len(n.overlays.NeighborsView(v, node))
	}
	return total
}

// TestNetTubeProbeMatchesFullPrune drives two NetTubes through one random
// sequence of Join, Leave, Fail, Request, Finish and Probe over a pool of
// users and a few videos, with unbounded and evicting caches. One probes with Probe, which prunes only a
// suspect node; the other with fullPruneProbe. After every step every
// return value, the counter block, every node's joined list, Links (and
// Links by keyed search) and Family slots must agree, and no online node
// that is not suspect may link an offline one in a joined overlay.
func TestNetTubeProbeMatchesFullPrune(t *testing.T) {
	const seeds, steps, poolSize, videos = 200, 500, 24, 6
	tr := baselineTrace(t)
	var pruned, deadSeen uint64 // links a probe pruned; offline neighbours seen
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := DefaultNetTubeConfig()
		cfg.Seed = int64(seed)
		cfg.CacheVideos = int(seed % 3) // unbounded, or evicting: a node may rejoin an overlay it holds a slot in
		nt, err := NewNetTube(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewNetTube(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		g := rand.New(rand.NewPCG(seed, 0))
		for step := 0; step < steps; step++ {
			n, v := g.IntN(poolSize), tr.Videos[g.IntN(videos)].ID
			var got, want any
			switch op := g.IntN(16); {
			case op < 3:
				nt.Join(n)
				ref.Join(n)
			case op < 5:
				nt.Leave(n)
				ref.Leave(n)
			case op < 6:
				nt.Fail(n)
				ref.Fail(n)
			case op < 10:
				got, want = nt.Request(n, v), ref.Request(n, v)
			case op < 12:
				nt.Finish(n, v)
				ref.Finish(n, v)
			default:
				before := nt.Ctr.LinksPruned
				got, want = nt.Probe(n), ref.fullPruneProbe(n)
				pruned += nt.Ctr.LinksPruned - before
			}
			if got != want {
				t.Fatalf("seed %d step %d node %d: got %v, full prune %v", seed, step, n, got, want)
			}
			if nt.Ctr != ref.Ctr {
				t.Fatalf("seed %d step %d: counters %+v, full prune %+v", seed, step, nt.Ctr, ref.Ctr)
			}
			for n := 0; n < poolSize; n++ {
				if l := nt.Links(n); l != ref.Links(n) || l != nt.searchedLinks(n) || !slices.Equal(nt.joined(n), ref.joined(n)) {
					t.Fatalf("seed %d step %d node %d: %d links over %v, searched %d, full prune %d over %v",
						seed, step, n, l, nt.joined(n), nt.searchedLinks(n), ref.Links(n), ref.joined(n))
				}
				for i := 0; ; i++ {
					key, nbs, ok := nt.overlays.Slot(n, i)
					rkey, rnbs, rok := ref.overlays.Slot(n, i)
					if ok != rok || key != rkey || !slices.Equal(nbs, rnbs) {
						t.Fatalf("seed %d step %d node %d slot %d: video %d %v, full prune video %d %v",
							seed, step, n, i, key, nbs, rkey, rnbs)
					}
					if !ok {
						break
					}
				}
				for _, v := range nt.joined(n) {
					for _, nb := range nt.overlays.NeighborsView(v, n) {
						if !nt.Online(nb) && nt.Online(n) {
							deadSeen++
							if !nt.nodes[n].suspect {
								t.Fatalf("seed %d step %d: node %d is not suspect but links offline %d in video %d's overlay",
									seed, step, n, nb, v)
							}
						}
					}
				}
			}
		}
	}
	if pruned < seeds || deadSeen == 0 {
		t.Fatalf("the sequences pruned %d links and saw %d dead ones: nothing was tested", pruned, deadSeen)
	}
}
