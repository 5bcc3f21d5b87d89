package core

import (
	"math"
	"slices"
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

func coreTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 21
	cfg.Channels = 60
	cfg.Users = 500
	cfg.Categories = 6
	cfg.MaxInterestsPerUser = 6
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// prefixOnly counts the catalog videos whose first chunk alone the cache
// holds.
func prefixOnly(c *vod.Cache, tr *trace.Trace) (n int) {
	for i := range tr.Videos {
		if v := tr.Videos[i].ID; c.HasPrefix(v) && !c.HasFull(v) {
			n++
		}
	}
	return n
}

func newSystem(t *testing.T, tr *trace.Trace, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// subscribedVideo returns a node id together with a video from one of its
// subscribed channels.
func subscribedVideo(t *testing.T, tr *trace.Trace) (int, trace.VideoID) {
	t.Helper()
	for _, u := range tr.Users {
		for _, cid := range u.Subscriptions {
			ch := tr.Channel(cid)
			if len(ch.Videos) > 0 {
				return int(u.ID), ch.Videos[0]
			}
		}
	}
	t.Fatal("no subscribed user with videos")
	return 0, 0
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", nil, true},
		{"zero inner", func(c *Config) { c.InnerLinks = 0 }, false},
		{"negative inter", func(c *Config) { c.InterLinks = -1 }, false},
		{"zero inter allowed", func(c *Config) { c.InterLinks = 0 }, true},
		{"inner past a mesh's bound", func(c *Config) { c.InnerLinks = overlay.MaxLinks + 1 }, false},
		{"inter past a mesh's bound", func(c *Config) { c.InterLinks = overlay.MaxLinks + 1 }, false},
		{"zero ttl", func(c *Config) { c.TTL = 0 }, false},
		{"negative prefetch", func(c *Config) { c.PrefetchCount = -1 }, false},
		{"zero prefetch allowed", func(c *Config) { c.PrefetchCount = 0 }, true},
		{"negative cache", func(c *Config) { c.CacheVideos = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewRejectsEmptyTrace(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("expected error for nil trace")
	}
	if _, err := New(DefaultConfig(), &trace.Trace{}); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestProtocolInterfaceCompliance(t *testing.T) {
	var _ vod.Protocol = (*System)(nil)
}

func TestCacheHitAfterFinish(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	res := s.Request(node, v)
	if res.Source != vod.SourceServer {
		t.Fatalf("first request source = %v, want server (empty system)", res.Source)
	}
	s.Finish(node, v)
	res = s.Request(node, v)
	if res.Source != vod.SourceCache {
		t.Fatalf("request after finish source = %v, want cache", res.Source)
	}
}

func TestPeerServesAfterCaching(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	ch := tr.Video(v).Channel
	// Bring another subscriber of the same channel online with the video.
	var other int = -1
	for _, uid := range tr.Channel(ch).Subscribers {
		if int(uid) != node {
			other = int(uid)
			break
		}
	}
	if other < 0 {
		t.Skip("channel has a single subscriber")
	}
	s.Join(other)
	if got := s.Request(other, v); got.Source != vod.SourceServer {
		t.Fatalf("seeding request source = %v", got.Source)
	}
	s.Finish(other, v)

	s.Join(node)
	res := s.Request(node, v)
	if res.Source != vod.SourcePeer {
		t.Fatalf("source = %v, want peer", res.Source)
	}
	if res.Provider != other {
		t.Fatalf("provider = %d, want %d", res.Provider, other)
	}
	if res.Hops < 1 || res.Hops > DefaultConfig().TTL {
		t.Fatalf("hops = %d outside [1, TTL]", res.Hops)
	}
	if res.Messages == 0 {
		t.Fatal("peer search sent no messages")
	}
}

func TestLinkBoundsNeverExceeded(t *testing.T) {
	tr := coreTrace(t)
	cfg := DefaultConfig()
	s := newSystem(t, tr, nil)
	g := dist.NewRNG(5)
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	// Drive many nodes through several requests each.
	for i := 0; i < 300; i++ {
		node := int(tr.Users[i%len(tr.Users)].ID)
		s.Join(node)
		v := picker.First(g, &tr.Users[node])
		for k := 0; k < 4; k++ {
			s.Request(node, v)
			s.Finish(node, v)
			v = picker.Next(g, v)
		}
	}
	for _, u := range tr.Users {
		node := int(u.ID)
		if got := s.inner.Degree(node); got > cfg.InnerLinks {
			t.Fatalf("node %d inner links %d > N_l %d", node, got, cfg.InnerLinks)
		}
		if got := s.inter.Degree(node); got > cfg.InterLinks {
			t.Fatalf("node %d inter links %d > N_h %d", node, got, cfg.InterLinks)
		}
		if got := s.Links(node); got > cfg.InnerLinks+cfg.InterLinks {
			t.Fatalf("node %d total links %d exceed budget", node, got)
		}
	}
}

func TestGracefulLeaveClearsLinks(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	s.Request(node, v)
	s.Finish(node, v)
	s.Leave(node)
	if s.Links(node) != 0 {
		t.Fatalf("links after graceful leave = %d, want 0", s.Links(node))
	}
	// Neighbours must not retain links to the departed node.
	for _, u := range tr.Users {
		other := int(u.ID)
		if other == node {
			continue
		}
		if s.inner.Connected(other, node) {
			t.Fatalf("node %d retains link to departed %d", other, node)
		}
	}
}

func TestFailKeepsNeighborLinksUntilProbe(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	ch := tr.Video(v).Channel
	var other int = -1
	for _, uid := range tr.Channel(ch).Subscribers {
		if int(uid) != node {
			other = int(uid)
			break
		}
	}
	if other < 0 {
		t.Skip("channel has a single subscriber")
	}
	// Both nodes join the channel overlay and link up.
	s.Join(other)
	s.Request(other, v)
	s.Finish(other, v)
	s.Join(node)
	res := s.Request(node, v)
	if res.Source != vod.SourcePeer {
		t.Skip("nodes did not link up in this topology")
	}
	before := s.Links(node)
	if before == 0 {
		t.Fatal("requester holds no links")
	}
	s.Fail(other)
	if got := s.Links(node); got != before {
		t.Fatalf("links changed on abrupt failure before probe: %d -> %d", before, got)
	}
	msgs := s.Probe(node)
	if msgs == 0 {
		t.Fatal("probe sent no messages")
	}
	// The dead link must be gone (replenish may add fresh live links).
	if s.inner.Connected(node, other) {
		t.Fatal("probe left a dead link")
	}
}

func TestRejoinReconnectsToPreviousNeighbors(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	ch := tr.Video(v).Channel
	var other int = -1
	for _, uid := range tr.Channel(ch).Subscribers {
		if int(uid) != node {
			other = int(uid)
			break
		}
	}
	if other < 0 {
		t.Skip("channel has a single subscriber")
	}
	s.Join(other)
	s.Request(other, v)
	s.Finish(other, v)
	s.Join(node)
	if got := s.Request(node, v); got.Source != vod.SourcePeer {
		t.Skip("nodes did not link up")
	}
	s.Leave(node)
	s.Join(node)
	if s.Links(node) == 0 {
		t.Fatal("rejoin did not reconnect to previous neighbours")
	}
	if s.nodes[node].home != ch {
		t.Fatalf("rejoined home = %d, want %d", s.nodes[node].home, ch)
	}
}

func TestCachePersistsAcrossSessions(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	s.Request(node, v)
	s.Finish(node, v)
	s.Leave(node)
	s.Join(node)
	if res := s.Request(node, v); res.Source != vod.SourceCache {
		t.Fatalf("cached video lost across sessions: source %v", res.Source)
	}
}

func TestPrefetchMarksTopChannelVideos(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	// Find a subscribed channel with enough videos.
	var node int
	var ch *trace.Channel
	for _, u := range tr.Users {
		for _, cid := range u.Subscriptions {
			if c := tr.Channel(cid); len(c.Videos) >= 5 {
				node, ch = int(u.ID), c
				break
			}
		}
		if ch != nil {
			break
		}
	}
	if ch == nil {
		t.Skip("no subscribed channel with >=5 videos")
	}
	s.Join(node)
	watched := ch.Videos[4]
	s.Request(node, watched)
	s.Finish(node, watched)
	cache := s.caches.Cache(node)
	for i := 0; i < DefaultConfig().PrefetchCount; i++ {
		if !cache.HasPrefix(ch.Videos[i]) {
			t.Fatalf("top-%d video %d not prefetched", i+1, ch.Videos[i])
		}
	}
	// A later request for a prefetched video reports the prefix hit.
	res := s.Request(node, ch.Videos[0])
	if !res.PrefixCached {
		t.Fatal("request did not report prefetch hit")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, func(c *Config) { c.PrefetchCount = 0 })
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	s.Request(node, v)
	s.Finish(node, v)
	if got := prefixOnly(s.caches.Cache(node), tr); got != 0 {
		t.Fatalf("prefetch disabled but %d prefixes cached", got)
	}
}

func TestInterLinksDisabledAblation(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, func(c *Config) { c.InterLinks = 0 })
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	s.Request(node, v)
	if got := s.inter.Degree(node); got != 0 {
		t.Fatalf("inter links = %d with N_h = 0", got)
	}
}

func TestDoubleJoinAndLeaveAreIdempotent(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	s.Join(node)
	s.Join(node)
	s.Request(node, v)
	s.Leave(node)
	s.Leave(node)
	s.Fail(node) // offline fail is a no-op
	if s.Links(node) != 0 {
		t.Fatal("links after repeated leave")
	}
}

func TestRequestUnknownNodeOrVideo(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	if res := s.Request(1<<30, 0); res.Source != vod.SourceServer {
		t.Fatal("unknown node should fall back to server")
	}
	node := int(tr.Users[0].ID)
	s.Join(node)
	if res := s.Request(node, trace.VideoID(1<<30)); res.Source != vod.SourceServer {
		t.Fatal("unknown video should fall back to server")
	}
	if got := s.Links(1 << 30); got != 0 {
		t.Fatal("unknown node has links")
	}
}

func TestOfflineNodeRequestGoesToServer(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node, v := subscribedVideo(t, tr)
	if res := s.Request(node, v); res.Source != vod.SourceServer {
		t.Fatal("offline node should be served by the server")
	}
}

func TestMeshesStaySymmetricUnderChurn(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	g := dist.NewRNG(9)
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			node := int(tr.Users[g.Intn(len(tr.Users))].ID)
			switch g.Intn(6) {
			case 0:
				s.Join(node)
			case 1:
				s.Leave(node)
			case 2:
				s.Fail(node)
			case 3:
				s.Probe(node)
			case 4:
				// Detaching the node from its home overlay, as a channel
				// switch does; subscribing lets a later request rejoin.
				if home := s.nodes[node].home; home >= 0 && g.Bool(0.5) {
					s.detach(node)
				} else if subs := tr.Users[node].Subscriptions; len(subs) > 0 {
					s.Subscribe(node, subs[g.Intn(len(subs))])
				}
			default:
				if s.Online(node) {
					v := picker.First(g, &tr.Users[node])
					s.Request(node, v)
					s.Finish(node, v)
				}
			}
		}
		// Both meshes are symmetric, and every inner link joins two nodes
		// with the same non-negative home: the invariant that lets one
		// inner mesh hold every channel overlay.
		for a := range s.nodes {
			for _, b := range s.inner.NeighborsView(a) {
				if !s.inner.Connected(b, a) {
					t.Fatalf("inner link %d-%d one-sided after round %d", a, b, round)
				}
				if ha, hb := s.nodes[a].home, s.nodes[b].home; ha < 0 || ha != hb {
					t.Fatalf("inner link %d-%d joins homes %d and %d after round %d", a, b, ha, hb, round)
				}
			}
			for _, b := range s.inter.NeighborsView(a) {
				if !s.inter.Connected(b, a) {
					t.Fatalf("inter link %d-%d one-sided after round %d", a, b, round)
				}
			}
		}
		// Every member sits at the slot its nodeState holds, in its home's
		// set, and every held slot names its node.
		members := 0
		for ch := range s.members {
			for at, m := range s.members[ch].View() {
				if st := s.nodes[m]; int(st.home) != ch || int(st.slot) != at || !s.Online(m) {
					t.Fatalf("channel %d slot %d holds node %d (home %d, slot %d, online %v) after round %d", ch, at, m, st.home, st.slot, s.Online(m), round)
				}
			}
			members += len(s.members[ch].View())
		}
		for _, st := range s.nodes {
			if st.slot >= 0 {
				members--
			}
		}
		if members != 0 {
			t.Fatalf("member sets and held slots differ by %d after round %d", members, round)
		}
	}
}

func TestMaintenanceModelShapes(t *testing.T) {
	m := DefaultMaintenanceModel()
	if got := m.SocialTube(0); got != 0 {
		t.Errorf("SocialTube(0) = %v, want 0", got)
	}
	if got := m.NetTube(0); got != 0 {
		t.Errorf("NetTube(0) = %v, want 0", got)
	}
	// SocialTube is constant in videos watched.
	if m.SocialTube(1) != m.SocialTube(100) {
		t.Error("SocialTube overhead should be constant")
	}
	// NetTube is linear: doubling m doubles overhead.
	if math.Abs(m.NetTube(20)-2*m.NetTube(10)) > 1e-9 {
		t.Error("NetTube overhead should be linear in videos watched")
	}
	// Crossover: for small m NetTube is cheaper, for large m SocialTube wins.
	if m.NetTube(1) >= m.SocialTube(1) {
		t.Error("for m=1 NetTube should be cheaper (Fig. 15)")
	}
	if m.NetTube(10) <= m.SocialTube(10) {
		t.Error("for m=10 SocialTube should be cheaper (Fig. 15)")
	}
}

func TestPrefetchAccuracyMatchesPaper(t *testing.T) {
	if got := PrefetchAccuracy(25, 1); math.Abs(got-0.262) > 0.005 {
		t.Errorf("PrefetchAccuracy(25, 1) = %v, paper ≈0.262", got)
	}
	if got := PrefetchAccuracy(25, 4); math.Abs(got-0.546) > 0.01 {
		t.Errorf("PrefetchAccuracy(25, 4) = %v, paper ≈0.546", got)
	}
	if got := PrefetchAccuracy(0, 3); got != 0 {
		t.Errorf("degenerate accuracy = %v", got)
	}
	if got := PrefetchAccuracy(10, 0); got != 0 {
		t.Errorf("zero prefetch accuracy = %v", got)
	}
}

func TestMemberSet(t *testing.T) {
	m := &overlay.Members{}
	g := dist.NewRNG(1)
	if m.Random(g, -1) != -1 {
		t.Fatal("empty set should return -1")
	}
	one := m.Add(1)
	two := m.Add(2)
	if len(m.View()) != 2 || one != 0 || two != 1 {
		t.Fatalf("len = %d, slots %d and %d, want 2, 0 and 1", len(m.View()), one, two)
	}
	if view := m.View(); !slices.Contains(view, 1) || slices.Contains(view, 3) {
		t.Fatal("membership wrong")
	}
	if got := m.Random(g, 2); got != 1 {
		t.Fatalf("random excluding 2 = %d, want 1", got)
	}
	if moved := m.Remove(one); moved != 2 {
		t.Fatalf("removing node 1 moved %d into its slot, want 2", moved)
	}
	if got := m.Random(g, 2); got != -1 {
		t.Fatalf("random with everything excluded = %d, want -1", got)
	}
	m.Remove(one) // node 2 now sits in node 1's old slot
	if len(m.View()) != 0 {
		t.Fatal("set not empty after removals")
	}
}
