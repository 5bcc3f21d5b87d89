// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race runs.

//go:build !race

package baseline

import (
	"slices"
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
)

// TestNetTubeProbeAndLinksAllocFree pins NetTube's maintenance path at 0
// allocs/op: once every node has watched a few videos and some have failed
// (so the first probes prune dead links), Probe, Links and the flood's
// neighbour union merge-walk the node-side overlay lists in place, and so
// do a quiet probe and a suspect one after a neighbour's Fail.
func TestNetTubeProbeAndLinksAllocFree(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for n := range tr.Users {
		nt.Join(n)
		for k := 0; k < 4; k++ {
			v := tr.Videos[(n*7+k*13)%len(tr.Videos)].ID
			nt.Request(n, v)
			nt.Finish(n, v)
		}
	}
	for n := 0; n < len(tr.Users); n += 10 {
		nt.Fail(n)
	}
	links := 0
	for n := range tr.Users {
		nt.Probe(n) // prunes the dead links once
		links += nt.Links(n)
	}
	if links == 0 {
		t.Fatal("warm-up linked nothing: the guard would measure empty lists")
	}
	i, probed := 0, 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		n := i % len(tr.Users)
		probed += nt.Probe(n)
		links += nt.Links(n) + len(nt.unionNeighbors(n))
	}); avg != 0 {
		t.Fatalf("probe+links allocates %.2f allocs/op, want 0", avg)
	}
	if probed == 0 {
		t.Fatal("no probe examined a link")
	}
	n := 1
	for nt.Links(n) == 0 || !nt.Online(n) {
		n++
	}
	v := nt.nodes[n].joined[slices.IndexFunc(nt.nodes[n].joined, func(v trace.VideoID) bool {
		return len(nt.overlays.NeighborsView(v, n)) > 0
	})]
	if avg := testing.AllocsPerRun(2000, func() { nt.Probe(n) }); avg != 0 || nt.nodes[n].suspect {
		t.Fatalf("quiet probe allocates %.2f allocs/op (suspect %v), want 0", avg, nt.nodes[n].suspect)
	}
	pruned := nt.Ctr.LinksPruned
	if avg := testing.AllocsPerRun(2000, func() {
		nb := nt.overlays.NeighborsView(v, n)[0]
		nt.Fail(nb)
		nt.Probe(n)
		nt.Join(nb)
		nt.overlays.Connect(v, n, nb)
	}); avg != 0 {
		t.Fatalf("suspect probe allocates %.2f allocs/op, want 0", avg)
	}
	if got := nt.Ctr.LinksPruned - pruned; got < 2000 {
		t.Fatalf("2000 suspect probes pruned %d links", got)
	}
}
