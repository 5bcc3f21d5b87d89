package emu

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
)

// directPeer builds a started peer with fast conditions for message-level
// handler tests.
func directPeer(t *testing.T, tr *trace.Trace, tk *Tracker, id int, mode Mode) *Peer {
	t.Helper()
	return startPeer(t, tr, tk, id, mode, fastConditions())
}

func TestHandleQueryAnswersFromCache(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	p := directPeer(t, tr, tk, 0, ModeSocialTube)
	v := tr.Videos[0].ID
	p.RequestVideo(v)
	p.FinishVideo(v)

	resp, err := rpc(p.Addr(), &Message{
		Type: MsgQuery, From: 99, Video: int(v), TTL: 1, Visited: []int{99},
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK || resp.Provider != 0 || resp.ProviderAddr != p.Addr() {
		t.Fatalf("query hit malformed: %+v", resp)
	}
	if resp.Hops != 1 {
		t.Fatalf("hops = %d, want 1", resp.Hops)
	}
}

func TestHandleQueryMissWithTTL1DoesNotForward(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	p := directPeer(t, tr, tk, 0, ModeSocialTube)
	resp, err := rpc(p.Addr(), &Message{
		Type: MsgQuery, From: 99, Video: int(tr.Videos[0].ID), TTL: 1, Visited: []int{99},
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgMiss {
		t.Fatalf("type = %v, want miss", resp.Type)
	}
	if resp.Messages != 0 {
		t.Fatalf("TTL-1 miss forwarded %d messages, want 0", resp.Messages)
	}
}

func TestHandleQueryForwardsWithinTTL(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	v := tr.Videos[0].ID
	// c caches v; b links to c (video overlay); querying b with TTL 2
	// must forward to c and return the hit with hops 2.
	c := directPeer(t, tr, tk, 2, ModeNetTube)
	c.RequestVideo(v)
	c.FinishVideo(v)
	b := directPeer(t, tr, tk, 1, ModeNetTube)
	b.RequestVideo(tr.Videos[1].ID) // join some overlay state
	b.FinishVideo(tr.Videos[1].ID)
	// Link b into v's overlay so it has c as a neighbour.
	b.joinVideoOverlay(v, nil)
	if b.Links() == 0 {
		t.Skip("b could not link to c")
	}
	resp, err := rpc(b.Addr(), &Message{
		Type: MsgQuery, From: 99, Video: int(v), TTL: 2, Visited: []int{99},
	}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK {
		t.Fatalf("forwarded query missed: %+v", resp)
	}
	if resp.Provider != 2 {
		t.Fatalf("provider = %d, want 2", resp.Provider)
	}
	if resp.Hops != 2 {
		t.Fatalf("hops = %d, want 2", resp.Hops)
	}
}

func TestHandleQueryRespectsVisited(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	v := tr.Videos[0].ID
	c := directPeer(t, tr, tk, 2, ModeNetTube)
	c.RequestVideo(v)
	c.FinishVideo(v)
	b := directPeer(t, tr, tk, 1, ModeNetTube)
	b.joinVideoOverlay(v, nil)
	// Mark the provider as already visited: the forward must skip it.
	resp, err := rpc(b.Addr(), &Message{
		Type: MsgQuery, From: 99, Video: int(v), TTL: 2, Visited: []int{99, 2},
	}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgMiss {
		t.Fatalf("query revisited an excluded node: %+v", resp)
	}
}

func TestHandleConnectRespectsBudgets(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	cfg := DefaultPeerConfig(0, ModeSocialTube)
	cfg.InterLinks = 1
	p := newTestPeer(t, cfg, tr, tk.Addr(), fastConditions())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)

	first, err := rpc(p.Addr(), &Message{
		Type: MsgConnect, From: 10, Addr: "127.0.0.1:1", Link: "inter",
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Accepted {
		t.Fatal("first inter connect rejected")
	}
	second, err := rpc(p.Addr(), &Message{
		Type: MsgConnect, From: 11, Addr: "127.0.0.1:2", Link: "inter",
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if second.Accepted {
		t.Fatal("inter connect beyond budget accepted")
	}
	// Duplicate connect from the same node is rejected too.
	dup, err := rpc(p.Addr(), &Message{
		Type: MsgConnect, From: 10, Addr: "127.0.0.1:1", Link: "inter",
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Accepted {
		t.Fatal("duplicate connect accepted")
	}
}

func TestHandleConnectVideoRequiresCachedCopy(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	p := directPeer(t, tr, tk, 0, ModeNetTube)
	v := tr.Videos[0].ID
	resp, err := rpc(p.Addr(), &Message{
		Type: MsgConnect, From: 10, Addr: "127.0.0.1:1", Link: "video", Video: int(v),
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatal("video-overlay connect accepted without a cached copy")
	}
	p.RequestVideo(v)
	p.FinishVideo(v)
	resp, err = rpc(p.Addr(), &Message{
		Type: MsgConnect, From: 10, Addr: "127.0.0.1:1", Link: "video", Video: int(v),
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatal("video-overlay connect rejected despite cached copy")
	}
}

func TestHandleUnknownMessageType(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	p := directPeer(t, tr, tk, 0, ModeSocialTube)
	// An unknown wire type is rejected without a response (the frame
	// never reaches dispatch) and counted.
	if _, err := rpc(p.Addr(), &Message{Type: "gibberish", From: 9}, 2*time.Second); err == nil {
		t.Fatal("unknown type was answered, want rejection")
	}
	if got := p.Counters().FramesRejected; got != 1 {
		t.Fatalf("FramesRejected = %d, want 1", got)
	}
	// The listener survives rejection: the next valid message works.
	resp, err := rpc(p.Addr(), &Message{Type: MsgProbe, From: 9}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK {
		t.Fatalf("probe after rejection answered %v, want ok", resp.Type)
	}
}

func TestChunkReqForPrefixOnlyFirstChunk(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	// A SocialTube peer with a subscribed channel prefetches prefixes.
	var node int = -1
	var ch *trace.Channel
	for _, u := range tr.Users {
		if int(u.ID) >= 64 {
			continue
		}
		for _, cid := range u.Subscriptions {
			if c := tr.Channel(cid); len(c.Videos) >= 4 {
				node, ch = int(u.ID), c
				break
			}
		}
		if ch != nil {
			break
		}
	}
	if ch == nil {
		t.Skip("no subscribed channel with enough videos")
	}
	p := directPeer(t, tr, tk, node, ModeSocialTube)
	watched := ch.Videos[3]
	p.RequestVideo(watched)
	p.FinishVideo(watched)
	top := ch.Videos[0]
	if top == watched {
		t.Skip("watched the top video")
	}
	// Chunk 0 of a prefix-cached video is servable; chunk 1 is not.
	resp, err := rpc(p.Addr(), &Message{Type: MsgChunkReq, From: 9, Video: int(top), Chunk: 0}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK {
		t.Fatalf("prefix chunk 0 not served: %v", resp.Type)
	}
	resp, err = rpc(p.Addr(), &Message{Type: MsgChunkReq, From: 9, Video: int(top), Chunk: 1}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgMiss {
		t.Fatalf("prefix-only peer served chunk 1: %v", resp.Type)
	}
}

func TestTrackerWatcherLifecycle(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	v := int(tr.Videos[0].ID)
	// First watcher: no provider.
	resp, err := rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 1, Addr: "127.0.0.1:1", Video: v}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provider != -1 {
		t.Fatalf("first watcher got provider %d", resp.Provider)
	}
	// Second watcher is pointed at the first.
	resp, err = rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 2, Addr: "127.0.0.1:2", Video: v}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provider != 1 {
		t.Fatalf("provider = %d, want 1", resp.Provider)
	}
	// First watcher leaves; a third watcher must not be pointed at it.
	if _, err := rpc(tk.Addr(), &Message{Type: MsgWatchDone, From: 1, Video: v}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 3, Addr: "127.0.0.1:3", Video: v}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provider == 1 {
		t.Fatal("tracker pointed at a departed watcher")
	}
}

// TestGracefulLeaveNotifiesNeighbors: after LeaveOverlays, neighbours have
// dropped their links immediately — no probe round needed (§IV-A).
func TestGracefulLeaveNotifiesNeighbors(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	v := tr.Videos[0].ID
	pa := directPeer(t, tr, tk, 0, ModeNetTube)
	pa.RequestVideo(v)
	pa.FinishVideo(v)
	pb := directPeer(t, tr, tk, 1, ModeNetTube)
	pb.RequestVideo(v)
	pb.FinishVideo(v)
	if pa.Links() == 0 {
		t.Skip("peers did not link")
	}
	pb.LeaveOverlays()
	if pa.Links() != 0 {
		t.Fatalf("neighbour retains %d links after graceful leave", pa.Links())
	}
}

func TestTrackerStats(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	rpc(tk.Addr(), &Message{Type: MsgTopList, From: 1}, time.Second)
	rpc(tk.Addr(), &Message{Type: MsgServe, From: 1, Video: 0, Chunk: 0}, 2*time.Second)
	stats := tk.Stats()
	if stats[MsgTopList] != 1 || stats[MsgServe] != 1 {
		t.Fatalf("stats = %v", stats)
	}
	// The snapshot is a copy.
	stats[MsgServe] = 99
	if tk.Stats()[MsgServe] != 1 {
		t.Fatal("stats snapshot aliased internal state")
	}
}

func TestTrackerISPLocalizedWatchStart(t *testing.T) {
	tr := emuTrace(t)
	cfg := DefaultTrackerConfig()
	cfg.ISPs = 2
	tk, err := NewTracker(cfg, tr, fastConditions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tk.Stop)
	v := int(tr.Videos[0].ID)
	// Watcher 2 (ISP 0) starts; requester 3 (ISP 1) must NOT be
	// redirected to it, requester 4 (ISP 0) must.
	rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 2, Addr: "127.0.0.1:2", Video: v}, 2*time.Second)
	resp, err := rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 3, Addr: "127.0.0.1:3", Video: v}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provider != -1 {
		t.Fatalf("cross-ISP requester got provider %d", resp.Provider)
	}
	resp, err = rpc(tk.Addr(), &Message{Type: MsgWatchStart, From: 4, Addr: "127.0.0.1:4", Video: v}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Provider != 2 {
		t.Fatalf("same-ISP requester got provider %d, want 2", resp.Provider)
	}
}

// TestJoinVideoSpreadsRecommendations is the regression test for NetTube
// joins that always named the overlay's lowest ids: over a 30-member
// overlay, members re-joining must be sent beyond the 13 lowest ids (the
// most a lowest-12-but-never-yourself answer can name), and each answer
// holds at most 12 distinct ids, never the joiner's own.
func TestJoinVideoSpreadsRecommendations(t *testing.T) {
	tr := emuTrace(t)
	tk, err := NewTracker(DefaultTrackerConfig(), tr, fastConditions())
	if err != nil {
		t.Fatal(err)
	}
	v := int(tr.Videos[0].ID)
	join := func(id int) *Message {
		return tk.dispatch(&Message{Type: MsgJoinVideo, From: id, Addr: fmt.Sprintf("127.0.0.1:%d", id), Video: v})
	}
	for id := 100; id < 130; id++ {
		join(id)
	}
	named := make(map[int]bool)
	for id := 100; id < 130; id++ {
		resp := join(id)
		if resp.Type != MsgJoinOK || len(resp.Peers) == 0 || len(resp.Peers) > joinPeers {
			t.Fatalf("join by %d: %v with %d peers, want 1..%d", id, resp.Type, len(resp.Peers), joinPeers)
		}
		ids := make([]int, len(resp.Peers))
		for i, p := range resp.Peers {
			if p.ID == id || slices.Contains(ids[:i], p.ID) {
				t.Fatalf("join by %d recommends itself or a duplicate: %v", id, resp.Peers)
			}
			ids[i] = p.ID
			named[p.ID] = true
		}
	}
	if len(named) <= joinPeers+1 {
		t.Fatalf("30 joins named only %d distinct members: %v", len(named), named)
	}
}

func TestCacheSampleRPC(t *testing.T) {
	tr := emuTrace(t)
	tk := startTracker(t, tr, fastConditions())
	p := directPeer(t, tr, tk, 0, ModeNetTube)
	for i := 0; i < 4; i++ {
		v := tr.Videos[i].ID
		p.RequestVideo(v)
		p.FinishVideo(v)
	}
	resp, err := rpc(p.Addr(), &Message{Type: MsgCacheSample, From: 9, TTL: 2}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgOK || len(resp.Videos) != 2 {
		t.Fatalf("cache sample: %+v", resp)
	}
	// Every returned id is genuinely cached.
	p.mu.Lock()
	for _, raw := range resp.Videos {
		if !p.cache.HasFull(trace.VideoID(raw)) {
			p.mu.Unlock()
			t.Fatalf("sampled id %d not cached", raw)
		}
	}
	p.mu.Unlock()
	// TTL 0 returns the full cache.
	resp, err = rpc(p.Addr(), &Message{Type: MsgCacheSample, From: 9}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Videos) != 4 {
		t.Fatalf("full sample = %d ids, want 4", len(resp.Videos))
	}
}
