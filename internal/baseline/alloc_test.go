// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race runs.

//go:build !race

package baseline

import "testing"

// TestNetTubeProbeAndLinksAllocFree pins NetTube's maintenance path at 0
// allocs/op: once every node has watched a few videos and some have failed
// (so the first probes prune dead links), Probe and Links read and prune the
// node-side overlay lists in place.
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
		links += nt.Links(n)
	}); avg != 0 {
		t.Fatalf("probe+links allocates %.2f allocs/op, want 0", avg)
	}
	if probed == 0 {
		t.Fatal("no probe examined a link")
	}
}
