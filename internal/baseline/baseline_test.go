package baseline

import (
	"slices"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

func baselineTrace(t *testing.T) *trace.Trace {
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

func TestNetTubeConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*NetTubeConfig)
	}{
		{"zero links", func(c *NetTubeConfig) { c.LinksPerOverlay = 0 }},
		{"zero ttl", func(c *NetTubeConfig) { c.TTL = 0 }},
		{"negative prefetch", func(c *NetTubeConfig) { c.PrefetchCount = -1 }},
		{"negative cache", func(c *NetTubeConfig) { c.CacheVideos = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultNetTubeConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if err := DefaultNetTubeConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNetTubeRejectsEmptyTrace(t *testing.T) {
	if _, err := NewNetTube(DefaultNetTubeConfig(), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestPAVoDRejectsEmptyTrace(t *testing.T) {
	if _, err := NewPAVoD(DefaultPAVoDConfig(), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestProtocolCompliance(t *testing.T) {
	var _ vod.Protocol = (*NetTube)(nil)
	var _ vod.Protocol = (*PAVoD)(nil)
}

func TestNetTubeCacheHit(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	node := int(tr.Users[0].ID)
	v := tr.Videos[0].ID
	nt.Join(node)
	if res := nt.Request(node, v); res.Source != vod.SourceServer {
		t.Fatalf("first request = %v, want server", res.Source)
	}
	nt.Finish(node, v)
	if res := nt.Request(node, v); res.Source != vod.SourceCache {
		t.Fatalf("cached request = %v, want cache", res.Source)
	}
}

func TestNetTubeServerDirectsToOverlayProvider(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[0].ID
	a, b := int(tr.Users[0].ID), int(tr.Users[1].ID)
	nt.Join(a)
	nt.Request(a, v)
	nt.Finish(a, v)
	nt.Join(b)
	res := nt.Request(b, v)
	if res.Source != vod.SourcePeer || res.Provider != a {
		t.Fatalf("expected server-directed peer %d, got %+v", a, res)
	}
	// b should now be linked into the overlay of v.
	if len(nt.joined(b)) != 1 {
		t.Fatalf("b joined %d overlays, want 1", len(nt.joined(b)))
	}
	if nt.Links(b) == 0 {
		t.Fatal("b has no links after joining the overlay")
	}
}

func TestNetTubeNeighborSearchWithinTwoHops(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := tr.Videos[0].ID, tr.Videos[1].ID
	a, b := int(tr.Users[0].ID), int(tr.Users[1].ID)
	// a watches v1 and v2; b watches v1 and links to a, then asks for v2.
	nt.Join(a)
	nt.Request(a, v1)
	nt.Finish(a, v1)
	nt.Request(a, v2)
	nt.Finish(a, v2)
	nt.Join(b)
	nt.Request(b, v1)
	nt.Finish(b, v1)
	res := nt.Request(b, v2)
	if res.Source != vod.SourcePeer {
		t.Fatalf("neighbour search failed: %+v", res)
	}
	if res.Provider != a {
		t.Fatalf("provider = %d, want %d", res.Provider, a)
	}
	if res.Hops < 1 || res.Hops > 2 {
		t.Fatalf("hops = %d, want within 2", res.Hops)
	}
}

// TestNetTubeLinksGrowWithVideosWatched verifies the core claim of Fig. 15 /
// Fig. 18: NetTube overhead accumulates with distinct videos watched.
func TestNetTubeLinksGrowWithVideosWatched(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Seed providers: several nodes watch a set of videos.
	seedNodes := []int{0, 1, 2, 3, 4}
	var vids []trace.VideoID
	for i := 0; i < 12; i++ {
		vids = append(vids, tr.Videos[i].ID)
	}
	for _, n := range seedNodes {
		nt.Join(n)
		for _, v := range vids {
			nt.Request(n, v)
			nt.Finish(n, v)
		}
	}
	// A fresh node watches more and more videos; its links must grow.
	probe := 10
	nt.Join(probe)
	linksAfter := make([]int, 0, len(vids))
	for _, v := range vids {
		nt.Request(probe, v)
		nt.Finish(probe, v)
		linksAfter = append(linksAfter, nt.Links(probe))
	}
	if linksAfter[len(linksAfter)-1] <= linksAfter[0] {
		t.Fatalf("NetTube links did not grow: %v", linksAfter)
	}
	if len(nt.joined(probe)) != len(vids) {
		t.Fatalf("probe joined %d overlays, want %d", len(nt.joined(probe)), len(vids))
	}
}

func TestNetTubeLeaveDropsAllOverlays(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0, 1
	v := tr.Videos[0].ID
	nt.Join(a)
	nt.Request(a, v)
	nt.Finish(a, v)
	nt.Join(b)
	nt.Request(b, v)
	nt.Finish(b, v)
	nt.Leave(a)
	if nt.Links(a) != 0 || len(nt.joined(a)) != 0 {
		t.Fatal("leave did not clear overlays")
	}
	if nt.Links(b) != 0 {
		// b's only neighbour was a; symmetric removal must clear it.
		t.Fatalf("b retains %d links to departed node", nt.Links(b))
	}
}

func TestNetTubeFailThenProbe(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0, 1
	v := tr.Videos[0].ID
	for _, n := range []int{a, b} {
		nt.Join(n)
		nt.Request(n, v)
		nt.Finish(n, v)
	}
	if nt.Links(b) == 0 {
		t.Skip("nodes did not link")
	}
	nt.Fail(a)
	if nt.Links(b) == 0 {
		t.Fatal("abrupt failure should leave dead links until probe")
	}
	if msgs := nt.Probe(b); msgs == 0 {
		t.Fatal("probe sent no messages")
	}
	if nt.Links(b) != 0 {
		t.Fatal("probe did not clear dead link")
	}
}

// TestNetTubeHalfJoinedProvider pins a known defect, not a wish: a node
// found by a flood in an overlay it has not joined takes the edge into that
// overlay's mesh without the overlay entering its joined list, so its own
// link count and its next Leave both miss that edge. a watches v1 and
// leaves (its cache stays), comes back into v2's overlay, where b finds it;
// b's flood for v1 then links b to a in v1's mesh. The edge outlives a's
// next Leave until b's next probe prunes it.
func TestNetTubeHalfJoinedProvider(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	a, b := int(tr.Users[0].ID), int(tr.Users[1].ID)
	v1, v2 := tr.Videos[0].ID, tr.Videos[1].ID
	nt.Join(a)
	nt.Request(a, v1)
	nt.Finish(a, v1)
	nt.Leave(a)
	nt.Join(a)
	nt.Request(a, v2)
	nt.Finish(a, v2)
	nt.Join(b)
	if res := nt.Request(b, v2); res.Source != vod.SourcePeer || res.Provider != a {
		t.Fatalf("b's v2 request = %+v, want server-directed to %d", res, a)
	}
	if res := nt.Request(b, v1); res.Source != vod.SourcePeer || res.Provider != a || res.Hops != 1 {
		t.Fatalf("b's v1 request = %+v, want flood hit on %d at 1 hop", res, a)
	}
	if got := len(nt.overlays.NeighborsView(v1, a)); got != 1 {
		t.Fatalf("a's degree in v1's mesh = %d, want 1", got)
	}
	if nt.Links(a) != 1 || len(nt.joined(a)) != 1 || nt.Links(b) != 2 {
		t.Fatalf("Links(a)=%d Overlays(a)=%d Links(b)=%d, want 1 1 2 (the v1 edge is off a's books)",
			nt.Links(a), len(nt.joined(a)), nt.Links(b))
	}
	nt.Leave(a)
	if got := len(nt.overlays.NeighborsView(v1, a)); got != 1 || nt.Links(b) != 1 {
		t.Fatalf("after a's leave: degree(v1, a)=%d Links(b)=%d, want 1 1 (the v1 edge outlives it)", got, nt.Links(b))
	}
	if msgs := nt.Probe(b); msgs != 1 || nt.Links(b) != 0 {
		t.Fatalf("b's probe after a's leave sent %d messages and left Links(b)=%d, want 1 0", msgs, nt.Links(b))
	}
}

func TestNetTubeCachePersistsAcrossSessions(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	node := 0
	v := tr.Videos[0].ID
	nt.Join(node)
	nt.Request(node, v)
	nt.Finish(node, v)
	nt.Leave(node)
	// Links are gone but the cache survives.
	if nt.Links(node) != 0 {
		t.Fatal("links survived leave")
	}
	nt.Join(node)
	if res := nt.Request(node, v); res.Source != vod.SourceCache {
		t.Fatalf("cache lost across sessions: %v", res.Source)
	}
}

func TestNetTubePrefetchFromNeighbors(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0, 1
	v1, v2, v3 := tr.Videos[0].ID, tr.Videos[1].ID, tr.Videos[2].ID
	nt.Join(a)
	for _, v := range []trace.VideoID{v1, v2, v3} {
		nt.Request(a, v)
		nt.Finish(a, v)
	}
	nt.Join(b)
	nt.Request(b, v1)
	nt.Finish(b, v1)
	// b linked to a in v1's overlay; prefetch should have drawn from a's
	// cache.
	c := nt.Cache(b)
	if !slices.ContainsFunc(tr.Videos, func(v trace.Video) bool { return c.HasPrefix(v.ID) && !c.HasFull(v.ID) }) {
		t.Fatal("no prefetch happened despite neighbour with cache")
	}
}

func TestNetTubeDegenerateRequests(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res := nt.Request(1<<30, 0); res.Source != vod.SourceServer {
		t.Fatal("unknown node should fall to server")
	}
	nt.Join(0)
	if res := nt.Request(0, trace.VideoID(1<<30)); res.Source != vod.SourceServer {
		t.Fatal("unknown video should fall to server")
	}
	nt.Join(0) // double join no-op
	nt.Leave(99999)
	nt.Fail(99999)
	if nt.Cache(99999) != nil {
		t.Fatal("unknown node has cache")
	}
}

func TestPAVoDConcurrentWatcherServes(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[0].ID
	a, b := 0, 1
	pv.Join(a)
	pv.Join(b)
	if res := pv.Request(a, v); res.Source != vod.SourceServer {
		t.Fatalf("first watcher source = %v, want server", res.Source)
	}
	// a is still watching; once it has downloaded the leading chunk
	// (ReadyDelay), b must be served by a.
	pv.SetNow(DefaultPAVoDConfig().ReadyDelay + time.Second)
	res := pv.Request(b, v)
	if res.Source != vod.SourcePeer || res.Provider != a {
		t.Fatalf("expected peer %d, got %+v", a, res)
	}
	if pv.Links(b) != 1 {
		t.Fatalf("b links = %d, want 1 (active provider)", pv.Links(b))
	}
}

// TestPAVoDNoProviderAfterFinish captures PA-VoD's key weakness: once the
// watcher finishes, the video has no peer provider.
func TestPAVoDNoProviderAfterFinish(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[0].ID
	a, b := 0, 1
	pv.Join(a)
	pv.Join(b)
	pv.Request(a, v)
	pv.Finish(a, v)
	if len(pv.watchers[v].View()) != 0 {
		t.Fatalf("watchers after finish = %d, want 0", len(pv.watchers[v].View()))
	}
	if res := pv.Request(b, v); res.Source != vod.SourceServer {
		t.Fatalf("source = %v, want server (no concurrent watcher)", res.Source)
	}
}

func TestPAVoDNoCache(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[0].ID
	node := 0
	pv.Join(node)
	pv.Request(node, v)
	pv.Finish(node, v)
	// Re-request: no cache, so the server (or a concurrent watcher, of
	// which there are none) must serve again.
	if res := pv.Request(node, v); res.Source != vod.SourceServer {
		t.Fatalf("PA-VoD should not cache: %v", res.Source)
	}
}

func TestPAVoDLeaveClearsWatcher(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[0].ID
	pv.Join(0)
	pv.Request(0, v)
	pv.Leave(0)
	if len(pv.watchers[v].View()) != 0 {
		t.Fatal("leave did not clear watcher registration")
	}
	pv.Fail(0) // offline fail is a no-op
	if pv.Links(0) != 0 {
		t.Fatal("links after leave")
	}
}

func TestPAVoDSwitchingVideosMovesWatcher(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := tr.Videos[0].ID, tr.Videos[1].ID
	pv.Join(0)
	pv.Request(0, v1)
	pv.Request(0, v2)
	if len(pv.watchers[v1].View()) != 0 {
		t.Fatal("moving to a new video should stop providing the old one")
	}
	if len(pv.watchers[v2].View()) != 1 {
		t.Fatal("node not registered as watcher of new video")
	}
}

func TestPAVoDDegenerate(t *testing.T) {
	tr := baselineTrace(t)
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res := pv.Request(1<<30, 0); res.Source != vod.SourceServer {
		t.Fatal("unknown node should fall to server")
	}
	pv.Join(0)
	if res := pv.Request(0, trace.VideoID(1<<30)); res.Source != vod.SourceServer {
		t.Fatal("unknown video should fall to server")
	}
	pv.Finish(0, tr.Videos[5].ID) // finishing an unwatched video is a no-op
	// A catalog video nobody has watched has no watcher set yet: it reads
	// as empty, and its first watcher allocates it.
	v := tr.Videos[7].ID
	if pv.watchers[v] != nil || len(pv.watchers[v].View()) != 0 {
		t.Fatalf("untouched video %d: watcher set %v, %d watchers, want nil and 0", v, pv.watchers[v], len(pv.watchers[v].View()))
	}
	if res := pv.Request(0, v); res.Source != vod.SourceServer {
		t.Fatalf("first watcher of video %d served from %v, want the server", v, res.Source)
	}
	if len(pv.watchers[v].View()) != 1 {
		t.Fatalf("video %d has %d watchers after its first request, want 1", v, len(pv.watchers[v].View()))
	}
}

// TestNetTubeUntouchedVideoReadsEmpty: a video no node has joined has no
// member set. A fresh node's server-directed lookup for it finds no provider
// without drawing, the server serves it, and that join allocates the set.
func TestNetTubeUntouchedVideoReadsEmpty(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Videos[7].ID
	if nt.members[v] != nil || len(nt.members[v].View()) != 0 {
		t.Fatalf("untouched video %d has member set %v, want nil", v, nt.members[v])
	}
	nt.Join(0)
	nt.Leave(0) // leaving with no overlays touches no set
	nt.Join(0)
	fresh := dist.NewRNG(DefaultNetTubeConfig().Seed)
	if res := nt.Request(0, v); res.Source != vod.SourceServer {
		t.Fatalf("first request for video %d served from %v, want the server", v, res.Source)
	}
	if got := nt.members[v].View(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("video %d members after the first join = %v, want [0]", v, got)
	}
	if got, want := nt.RNG.Int63(), fresh.Int63(); got != want {
		t.Fatalf("a lookup on an empty set and a join into it drew from the RNG: next %d, want %d", got, want)
	}
}

// TestThreeProtocolAvailabilityOrdering is a cross-protocol sanity check of
// the paper's headline result: with identical workloads, SocialTube-style
// caching (NetTube here vs PA-VoD) finds more peer providers.
func TestCachingBeatsNoCaching(t *testing.T) {
	tr := baselineTrace(t)
	nt, err := NewNetTube(DefaultNetTubeConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := NewPAVoD(DefaultPAVoDConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(7)
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	// Same request sequence for both systems.
	type req struct {
		node int
		v    trace.VideoID
	}
	var seq []req
	for i := 0; i < 2000; i++ {
		node := int(tr.Users[g.Intn(len(tr.Users))].ID)
		v := picker.First(g, &tr.Users[node])
		seq = append(seq, req{node, v})
	}
	peerNT, peerPV := 0, 0
	for _, r := range seq {
		nt.Join(r.node)
		pv.Join(r.node)
		if res := nt.Request(r.node, r.v); res.Source == vod.SourcePeer {
			peerNT++
		}
		nt.Finish(r.node, r.v)
		if res := pv.Request(r.node, r.v); res.Source == vod.SourcePeer {
			peerPV++
		}
		pv.Finish(r.node, r.v)
	}
	if peerNT <= peerPV {
		t.Fatalf("NetTube peer hits %d should exceed PA-VoD %d", peerNT, peerPV)
	}
}

// TestMemberSlotsFollowChurn drives both baselines through 200 seeded
// random churn sequences and checks after every step that each member of a
// video's set sits at the slot its node state holds for that video, and
// that every held slot names its node: NetTube's memberAt beside joined, -1
// for an entry a failure left there, and PA-VoD's beside the watched video.
func TestMemberSlotsFollowChurn(t *testing.T) {
	tr := baselineTrace(t)
	for seed := int64(1); seed <= 200; seed++ {
		nt, err := NewNetTube(NetTubeConfig{LinksPerOverlay: 3, TTL: 2, PrefetchCount: 1, Seed: seed}, tr)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := NewPAVoD(PAVoDConfig{Seed: seed}, tr)
		if err != nil {
			t.Fatal(err)
		}
		g := dist.NewRNG(seed)
		for step := 0; step < 60; step++ {
			node, v := g.Intn(12), tr.Videos[g.Intn(6)].ID
			for _, p := range []vod.Protocol{nt, pa} {
				switch g.Intn(5) {
				case 0:
					p.Join(node)
				case 1:
					p.Leave(node)
				case 2:
					p.Fail(node)
				default:
					p.Request(node, v)
					if g.Bool(0.5) {
						p.Finish(node, v)
					}
				}
			}
			held := 0
			for n := range nt.nodes {
				st := &nt.nodes[n]
				if len(st.memberAt) != len(st.joined) {
					t.Fatalf("seed %d step %d: node %d holds %d member slots for %d joined videos", seed, step, n, len(st.memberAt), len(st.joined))
				}
				for i, at := range st.memberAt {
					if at >= 0 {
						held++
						if got := nt.members[st.joined[i]].View()[at]; got != n {
							t.Fatalf("seed %d step %d: node %d's slot %d in video %d's set holds %d", seed, step, n, at, st.joined[i], got)
						}
					}
				}
			}
			for _, m := range nt.members {
				held -= len(m.View())
			}
			for n, st := range pa.nodes {
				if st.watching >= 0 {
					held++
					if got := pa.watchers[st.watching].View()[st.slot]; got != n {
						t.Fatalf("seed %d step %d: node %d's slot %d in video %d's watchers holds %d", seed, step, n, st.slot, st.watching, got)
					}
				}
			}
			for _, w := range pa.watchers {
				held -= len(w.View())
			}
			if held != 0 {
				t.Fatalf("seed %d step %d: member sets and held slots differ by %d", seed, step, held)
			}
		}
	}
}
