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

// TestMemberSetsAllocFree pins the member-set bookkeeping of both baselines
// at 0 allocs/op once every set has held its members: a PA-VoD node
// finishing one video and starting the next, and a NetTube node leaving or
// failing and re-joining the overlays of the videos it has seen. A member's
// slot lives in the node's own state, so a set is a slice that reuses its
// array and no index grows beside it.
func TestMemberSetsAllocFree(t *testing.T) {
	tr := baselineTrace(t)
	pa, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	const watchers = 8
	vids := []trace.VideoID{tr.Videos[0].ID, tr.Videos[1].ID, tr.Videos[2].ID}
	for n := 0; n < watchers; n++ {
		pa.Join(n)
		pa.Request(n, vids[n%len(vids)])
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		n := i % watchers
		pa.Finish(n, pa.nodes[n].watching)
		pa.Request(n, vids[(i/watchers+n)%len(vids)])
	}); avg != 0 {
		t.Fatalf("PA-VoD watch cycle allocates %.2f allocs/op, want 0", avg)
	}
	if got := len(pa.watchers[vids[0]].View()) + len(pa.watchers[vids[1]].View()) + len(pa.watchers[vids[2]].View()); got != watchers {
		t.Fatalf("the three videos have %d watchers, want %d", got, watchers)
	}

	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([][]trace.VideoID, len(tr.Users))
	for n := range tr.Users {
		nt.Join(n)
		for k := 0; k < 4; k++ {
			v := tr.Videos[(n*7+k*13)%len(tr.Videos)].ID
			nt.Request(n, v)
			nt.Finish(n, v)
		}
		seen[n] = slices.Clone(nt.nodes[n].joined)
	}
	rejoin := func(i int) {
		n := i % len(tr.Users)
		if i%2 == 0 {
			nt.Leave(n)
		} else {
			nt.Fail(n)
		}
		nt.Join(n)
		for _, v := range seen[n] {
			nt.joinOverlay(n, v, -1)
		}
	}
	for i := 0; i < 4*len(tr.Users); i++ { // every list at its working size
		rejoin(i)
	}
	if avg := testing.AllocsPerRun(2000, func() { i++; rejoin(i) }); avg != 0 {
		t.Fatalf("NetTube leave/re-join allocates %.2f allocs/op, want 0", avg)
	}
}
