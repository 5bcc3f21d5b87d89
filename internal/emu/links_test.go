package emu

import (
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
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
				fits := lt.canAdd(kind, info, v)
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
	budget := map[string]int{linkInner: cfg.InnerLinks, linkInter: cfg.InterLinks, linkVideo: cfg.LinksPerOverlay}
	sum := 0
	for key, set := range lt.sets {
		max, known := budget[key.kind]
		if !known {
			t.Fatalf("set of unknown kind %q exists", key.kind)
		}
		if key.kind != linkVideo && key.video != 0 {
			t.Fatalf("%s set keyed by video %d", key.kind, key.video)
		}
		if len(set) > max {
			t.Fatalf("%s set (video %d) holds %d links, budget %d", key.kind, key.video, len(set), max)
		}
		for id, info := range set {
			if id == cfg.ID || info.ID != id {
				t.Fatalf("%s set holds a self- or mis-keyed link: key %d info %+v", key.kind, id, info)
			}
		}
		sum += len(set)
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
	if len(all) > sum {
		t.Fatalf("union of %d exceeds link count %d", len(all), sum)
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
	if lt.size(linkInner, 0) != 0 {
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
