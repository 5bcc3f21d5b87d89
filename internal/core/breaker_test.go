package core

import (
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/trace"
)

// TestBreakerStopsPayingForDeadInterNeighbor pins the breaker's message
// economics: a dead inter-neighbour costs one query message per request
// only until the breaker opens, then nothing until the probation window,
// and a rejoin resets the breaker so contact resumes immediately.
func TestBreakerStopsPayingForDeadInterNeighbor(t *testing.T) {
	tr := coreTrace(t)
	s := newSystem(t, tr, nil)

	// A video nobody caches, so every request walks the inter loop and
	// finds nothing.
	var v trace.VideoID
	var ch trace.ChannelID
	found := false
	for _, c := range tr.Channels {
		if len(c.Videos) > 0 {
			v, ch, found = c.Videos[0], c.ID, true
			break
		}
	}
	if !found {
		t.Fatal("trace has no videos")
	}
	// Two non-subscribers of that channel: the requester and its
	// soon-to-die inter-neighbour.
	a, b := -1, -1
	for _, u := range tr.Users {
		if s.subscribed(int(u.ID), ch) {
			continue
		}
		if a < 0 {
			a = int(u.ID)
		} else {
			b = int(u.ID)
			break
		}
	}
	if b < 0 {
		t.Skip("trace too dense: every user subscribes to the channel")
	}
	s.Join(a)
	s.Join(b)
	if !s.inter.Connect(a, b) {
		t.Fatal("could not build the inter link")
	}
	s.Fail(b) // abrupt: a keeps the dangling link until probed

	for i := 0; i < health.Threshold; i++ {
		if got := s.Request(a, v).Messages; got != 1 {
			t.Fatalf("request %d spent %d messages, want 1 (dead contact)", i, got)
		}
	}
	if got := s.ObsCounters().BreakerOpens; got != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", got)
	}
	// Open breaker: the dead neighbour now costs nothing.
	if got := s.Request(a, v).Messages; got != 0 {
		t.Fatalf("open breaker still spent %d messages", got)
	}
	if s.ObsCounters().BreakerSkips == 0 {
		t.Fatal("BreakerSkips not accounted")
	}
	// Past the window one probation probe is admitted — and fails again.
	s.SetNow(health.DefaultConfig().OpenFor + time.Second)
	if got := s.Request(a, v).Messages; got != 1 {
		t.Fatalf("half-open probe spent %d messages, want 1", got)
	}
	if o, p := s.ObsCounters().BreakerOpens, s.ObsCounters().BreakerProbes; o != 2 || p != 1 {
		t.Fatalf("probe accounting: opens=%d probes=%d, want 2 and 1", o, p)
	}
	// Rejoining is positive evidence: the breaker resets, no probation.
	s.Join(b)
	if got := s.Request(a, v).Messages; got != 1 {
		t.Fatalf("post-rejoin request spent %d messages, want 1", got)
	}
	if got := s.brk.State(b); got.String() != "closed" {
		t.Fatalf("breaker for rejoined node is %v, want closed", got)
	}
}
