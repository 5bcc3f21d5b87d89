package emu

import (
	"fmt"
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
)

// TestLinkTableInvariants drives the link table with seeded random
// add/accept/drop/reset sequences — no sockets, no peers — and checks the
// paper's link-budget invariant after every step: no set ever exceeds its
// budget (N_l inner, N_h inter, LinksPerOverlay per video overlay), no
// set holds a self- or duplicate link, and count is the sum of the sets.
func TestLinkTableInvariants(t *testing.T) {
	kinds := []string{linkInner, linkInter, linkVideo, "bogus"}
	for seed := int64(1); seed <= 20; seed++ {
		g := dist.NewRNG(seed)
		cfg := DefaultPeerConfig(3, ModeSocialTube)
		cfg.InnerLinks = 1 + g.Intn(4)
		cfg.InterLinks = g.Intn(5) // 0 is a legal inter budget
		cfg.LinksPerOverlay = 1 + g.Intn(3)
		lt := newLinkTable(cfg)
		for step := 0; step < 2000; step++ {
			kind := kinds[g.Intn(len(kinds))]
			// Ids 0..7 include the table's own (3); videos 0..3 keep the
			// overlays few enough to fill.
			info := PeerInfo{ID: g.Intn(8), Addr: "x", Channel: g.Intn(3)}
			v := trace.VideoID(g.Intn(4))
			switch g.Intn(10) {
			case 0:
				lt.dropPeer(info.ID)
			case 1:
				if g.Intn(8) == 0 {
					lt.reset()
				}
			case 2:
				lt.setHome(trace.ChannelID(g.Intn(3)))
			case 3:
				lt.joinVideo(v)
			case 4, 5, 6:
				fits := lt.canAdd(kind, info.ID, v)
				if got := lt.add(kind, info, v); got != fits {
					t.Fatalf("seed %d step %d: add=%v but canAdd=%v", seed, step, got, fits)
				}
			default:
				lt.accept(kind, info, v, g.Intn(2) == 0)
			}
			checkLinkTable(t, lt, cfg)
		}
	}
}

func checkLinkTable(t *testing.T, lt *linkTable, cfg PeerConfig) {
	t.Helper()
	sum := 0
	linked := make(map[int]bool)
	check := func(name string, s *overlay.Links, max int) {
		if s.Len() > max {
			t.Fatalf("%s set holds %d links, budget %d", name, s.Len(), max)
		}
		view := s.View()
		for i, id := range view {
			if id == cfg.ID || (i > 0 && view[i-1] >= id) {
				t.Fatalf("%s set holds a self- or duplicate link: %v", name, view)
			}
			if _, ok := lt.addrs[id]; !ok {
				t.Fatalf("%s set links %d with no address", name, id)
			}
			linked[id] = true
		}
		sum += s.Len()
	}
	check("inner", lt.inner, cfg.InnerLinks)
	check("inter", lt.inter, cfg.InterLinks)
	for v, s := range lt.videos {
		check(fmt.Sprintf("video %d", v), s, cfg.LinksPerOverlay)
	}
	if got := lt.count(); got != sum {
		t.Fatalf("count() = %d, sets sum to %d", got, sum)
	}
	// The snapshot is the id-ordered, duplicate-free union.
	all := lt.neighbours("")
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("neighbours not strictly id-ordered: %v", all)
		}
	}
	if len(all) != len(linked) {
		t.Fatalf("neighbours lists %d peers, the sets link %d", len(all), len(linked))
	}
	for _, nb := range all {
		if !linked[nb.ID] {
			t.Fatalf("neighbours lists %d, which no set links", nb.ID)
		}
	}
}

// TestLinkTableAcceptRules pins the two admission rules accept adds to
// add: an inner link must name the home channel, and a per-video link
// needs the overlay joined or the video cached.
func TestLinkTableAcceptRules(t *testing.T) {
	lt := newLinkTable(DefaultPeerConfig(0, ModeSocialTube))
	peer := PeerInfo{ID: 1, Addr: "x", Channel: 7}
	if lt.accept(linkInner, peer, 0, false) {
		t.Fatal("inner link accepted with no home channel")
	}
	lt.setHome(7)
	if !lt.accept(linkInner, peer, 0, false) {
		t.Fatal("inner link for the home channel rejected")
	}
	if lt.accept(linkInner, peer, 0, false) {
		t.Fatal("duplicate inner link accepted")
	}
	lt.setHome(8)
	if lt.inner.Len() != 0 {
		t.Fatal("home switch kept the old channel's inner links")
	}
	if lt.accept(linkVideo, peer, 5, false) {
		t.Fatal("video link accepted for an overlay neither joined nor cached")
	}
	if !lt.accept(linkVideo, peer, 5, true) {
		t.Fatal("video link rejected despite a cached copy")
	}
	lt.joinVideo(6)
	if !lt.accept(linkVideo, peer, 6, false) {
		t.Fatal("video link rejected for a joined overlay")
	}
	lt.dropPeer(1)
	if lt.count() != 0 {
		t.Fatalf("dropPeer left %d links", lt.count())
	}
}

// TestLinkTablePeerInTwoSets pins a peer that holds both an inner and an
// inter link: two links counted, one neighbour listed, and one drop
// removes both.
func TestLinkTablePeerInTwoSets(t *testing.T) {
	lt := newLinkTable(DefaultPeerConfig(0, ModeSocialTube))
	lt.setHome(7)
	peer := PeerInfo{ID: 1, Addr: "x", Channel: 7}
	if !lt.add(linkInner, peer, 0) || !lt.add(linkInter, peer, 0) {
		t.Fatal("one peer could not take an inner and an inter link")
	}
	if got := lt.count(); got != 2 {
		t.Fatalf("count() = %d, want 2", got)
	}
	all := lt.neighbours("")
	if len(all) != 1 || all[0] != (PeerInfo{ID: 1, Addr: "x"}) {
		t.Fatalf("neighbours = %v, want peer 1 once", all)
	}
	if len(lt.neighbours(linkInner)) != 1 || len(lt.neighbours(linkInter)) != 1 {
		t.Fatal("per-kind views miss the shared peer")
	}
	lt.dropPeer(1)
	if lt.count() != 0 || len(lt.neighbours("")) != 0 {
		t.Fatalf("dropPeer left %d links", lt.count())
	}
}
