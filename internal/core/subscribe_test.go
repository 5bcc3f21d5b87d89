package core

import (
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// unsubscribedChannel finds a channel with videos the node does not
// subscribe to.
func unsubscribedChannel(t *testing.T, tr *trace.Trace, node int) *trace.Channel {
	t.Helper()
	subbed := make(map[trace.ChannelID]bool)
	for _, ch := range tr.Users[node].Subscriptions {
		subbed[ch] = true
	}
	for i := range tr.Channels {
		ch := &tr.Channels[i]
		if !subbed[ch.ID] && len(ch.Videos) > 0 {
			return ch
		}
	}
	t.Skip("node subscribes to every channel")
	return nil
}

func TestSubscribeAddsChannel(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node := int(tr.Users[0].ID)
	ch := unsubscribedChannel(t, tr, node)
	before := len(s.Subscriptions(node))
	if !s.Subscribe(node, ch.ID) {
		t.Fatal("subscribe failed")
	}
	if s.Subscribe(node, ch.ID) {
		t.Fatal("duplicate subscribe should report false")
	}
	if got := len(s.Subscriptions(node)); got != before+1 {
		t.Fatalf("subscriptions = %d, want %d", got, before+1)
	}
}

func TestSubscribeRejectsUnknown(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	if s.Subscribe(1<<30, 0) {
		t.Fatal("unknown node subscribed")
	}
	if s.Subscribe(0, trace.ChannelID(1<<30)) {
		t.Fatal("unknown channel subscribed")
	}
}

// TestSubscribeChangesJoinBehavior: after subscribing, a request for the
// channel's video makes the node a member of that channel overlay (home
// switches), which it would not as a non-subscriber.
func TestSubscribeChangesJoinBehavior(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node := int(tr.Users[0].ID)
	ch := unsubscribedChannel(t, tr, node)
	v := ch.Videos[0]

	s.Join(node)
	s.Request(node, v)
	if s.nodes[node].home == ch.ID {
		t.Fatal("non-subscriber joined the channel overlay")
	}
	s.Subscribe(node, ch.ID)
	s.Request(node, v)
	if s.nodes[node].home != ch.ID {
		t.Fatalf("subscriber's home = %d, want %d", s.nodes[node].home, ch.ID)
	}
}

// TestSubscriptionsSnapshotIsCopy guards against aliasing internal state.
func TestSubscriptionsSnapshotIsCopy(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	node := int(tr.Users[0].ID)
	subs := s.Subscriptions(node)
	if len(subs) == 0 {
		t.Skip("user has no subscriptions")
	}
	subs[0] = trace.ChannelID(1 << 20)
	for _, ch := range s.Subscriptions(node) {
		if ch == trace.ChannelID(1<<20) {
			t.Fatal("mutating the snapshot affected internal state")
		}
	}
}

// TestRequestAfterCategorySwitchDropsInterLinks: moving to a channel in a
// different category rebuilds the inter-link set for the new category.
func TestRequestAfterCategorySwitchDropsInterLinks(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	// Find a user subscribed to channels in two different categories.
	var node int = -1
	var chA, chB *trace.Channel
	for _, u := range tr.Users {
		var cats = map[trace.CategoryID]*trace.Channel{}
		for _, cid := range u.Subscriptions {
			ch := tr.Channel(cid)
			if len(ch.Videos) == 0 {
				continue
			}
			cats[ch.Primary] = ch
		}
		if len(cats) >= 2 {
			node = int(u.ID)
			for _, ch := range cats {
				if chA == nil {
					chA = ch
				} else if chB == nil && ch.Primary != chA.Primary {
					chB = ch
				}
			}
			break
		}
	}
	if node < 0 || chB == nil {
		t.Skip("no user subscribed across categories")
	}
	// Populate both categories with other online nodes so links can form.
	for i := 0; i < 50 && i < len(tr.Users); i++ {
		s.Join(int(tr.Users[i].ID))
	}
	s.Join(node)
	s.Request(node, chA.Videos[0])
	s.Request(node, chB.Videos[0])
	if s.nodes[node].home != chB.ID {
		t.Fatalf("home = %d, want %d after switch", s.nodes[node].home, chB.ID)
	}
	// All inter links must now point into chB's category.
	for _, nb := range s.inter.NeighborsView(node) {
		nbHome := s.nodes[nb].home
		if nbHome < 0 {
			continue
		}
		if got := tr.Channel(nbHome).Primary; got != chB.Primary {
			t.Fatalf("inter neighbour %d is in category %d, want %d", nb, got, chB.Primary)
		}
	}
}

// TestNonSubscriberServedViaCategory checks the §IV-A promise that
// SocialTube "still helps [non-subscribers] locate peer video providers by
// using the high-level interest-based overlay".
func TestNonSubscriberServedViaCategory(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)
	// Seed: subscribers of some channel cache its top video.
	var ch *trace.Channel
	for i := range tr.Channels {
		if len(tr.Channels[i].Subscribers) >= 3 && len(tr.Channels[i].Videos) > 0 {
			ch = &tr.Channels[i]
			break
		}
	}
	if ch == nil {
		t.Skip("no channel with three subscribers")
	}
	v := ch.Videos[0]
	for _, uid := range ch.Subscribers {
		s.Join(int(uid))
		s.Request(int(uid), v)
		s.Finish(int(uid), v)
	}
	// A non-subscriber asks for the same video.
	var outsider int = -1
	for _, u := range tr.Users {
		subbed := false
		for _, cid := range u.Subscriptions {
			if cid == ch.ID {
				subbed = true
				break
			}
		}
		if !subbed {
			outsider = int(u.ID)
			break
		}
	}
	if outsider < 0 {
		t.Skip("everyone subscribes to the channel")
	}
	s.Join(outsider)
	res := s.Request(outsider, v)
	if res.Source != vod.SourcePeer {
		t.Fatalf("non-subscriber source = %v, want peer via category overlay", res.Source)
	}
	if s.nodes[outsider].home == ch.ID {
		t.Fatal("non-subscriber must not join the channel overlay")
	}
}
