package core

import (
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
)

// failCluster brings a node and enough channel-mates online that the
// node holds inner links, then crashes it abruptly. It returns the
// system, the crashed node and the node's link count at crash time.
func failCluster(t *testing.T, tr *trace.Trace) (*System, int, int) {
	t.Helper()
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	video := tr.Video(v)
	// Bring every subscriber of the video's channel online and attach
	// them so the overlay has real inner meshes.
	var members []int
	for _, u := range tr.Users {
		for _, cid := range u.Subscriptions {
			if cid == video.Channel {
				members = append(members, int(u.ID))
			}
		}
	}
	if len(members) < 3 {
		t.Skip("channel too small for a repair scenario")
	}
	for _, m := range members {
		s.Join(m)
		s.Request(m, v)
	}
	links := s.Links(node)
	if links == 0 {
		t.Fatalf("node %d built no links", node)
	}
	s.Fail(node)
	return s, node, links
}

func TestRepairNeighborsReplacesLinks(t *testing.T) {
	tr := coreTrace(t)
	s, node, _ := failCluster(t, tr)

	// Abrupt failure leaves the dead node's edges dangling.
	if s.inner.Degree(node)+s.inter.Degree(node) == 0 {
		t.Fatal("Fail dropped edges eagerly; repair has nothing to do")
	}

	links, msgs := s.RepairNeighbors(node)
	if msgs == 0 {
		t.Fatal("repair contacted no neighbors")
	}
	if got := s.inner.Degree(node) + s.inter.Degree(node); got != 0 {
		t.Fatalf("repair left %d stale edges to the dead node", got)
	}
	ctr := s.ObsCounters()
	if ctr.RepairCalls != 1 {
		t.Fatalf("RepairCalls = %d, want 1", ctr.RepairCalls)
	}
	if uint64(links) != ctr.RepairedLinks {
		t.Fatalf("returned links %d != RepairedLinks counter %d", links, ctr.RepairedLinks)
	}
	// Repairing an already-repaired (or never-failed) node is a no-op.
	if l, m := s.RepairNeighbors(node); l != 0 || m != 0 {
		t.Fatalf("second repair did work: links=%d msgs=%d", l, m)
	}
	online, _ := subscribedVideo(t, tr)
	if online != node {
		if l, m := s.RepairNeighbors(online); l != 0 || m != 0 {
			t.Fatalf("repairing an online node did work: links=%d msgs=%d", l, m)
		}
	}
}

func TestReseedRestoresPrefixes(t *testing.T) {
	tr := coreTrace(t)
	s, node, _ := failCluster(t, tr)
	s.Join(node)
	home := s.nodes[node].home
	if home < 0 {
		t.Fatal("rejoined node has no home channel")
	}
	n := s.Reseed(node)
	total := n
	// The prefix list is idempotent: a second reseed adds nothing.
	if again := s.Reseed(node); again != 0 {
		t.Fatalf("second reseed stored %d prefixes", again)
	}
	ch := tr.Channel(home)
	want := s.cfg.PrefetchCount
	if len(ch.Videos) < want {
		want = len(ch.Videos)
	}
	have := 0
	for i := 0; i < want; i++ {
		if s.caches.Cache(node).HasPrefix(ch.Videos[i]) {
			have++
		}
	}
	if have != want {
		t.Fatalf("after reseed %d of top-%d prefixes local", have, want)
	}
	if got := s.ObsCounters().PrefetchReseeds; got != uint64(total) {
		t.Fatalf("PrefetchReseeds = %d, want %d", got, total)
	}
	// Offline nodes cannot reseed.
	s.Fail(node)
	if got := s.Reseed(node); got != 0 {
		t.Fatalf("offline reseed stored %d prefixes", got)
	}
}
