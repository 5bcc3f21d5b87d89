// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race runs.

//go:build !race

package core

import (
	"slices"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// TestRequestStaysAllocFree pins the zero-overhead contract of the
// instrumentation layer: the request hot path allocates nothing per
// operation, with tracing disabled AND with the no-op tracer installed.
// (The threshold is <1 alloc on average: cache-map growth inside the
// protocol itself amortizes to ~0 but is not exactly 0 on every run.)
// TestRequestAllocFreeAfterRepair pins that the fault layer costs the
// request hot path nothing when no plan is active: even after a churn
// episode (abrupt failures, active repair, rejoin + reseed), Request
// stays below 1 alloc/op on average.
func TestRequestAllocFreeAfterRepair(t *testing.T) {
	sys, tr := benchSystem(t)
	// A churn episode over a slice of the population.
	for id := 0; id < 50 && id < len(tr.Users); id++ {
		sys.Fail(id)
		sys.RepairNeighbors(id)
	}
	for id := 0; id < 50 && id < len(tr.Users); id++ {
		sys.Join(id)
		sys.Reseed(id)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		u := tr.Users[i%len(tr.Users)]
		if len(u.Subscriptions) == 0 {
			return
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			return
		}
		sys.Request(int(u.ID), ch.Videos[(i+1)%len(ch.Videos)])
	})
	if avg >= 1 {
		t.Fatalf("request path allocates %.2f allocs/op after a repair episode, want <1", avg)
	}
}

// TestRequestAllocFreeWithOpenBreakers pins that the circuit-breaker
// check costs the hot path nothing in its worst state: a population with
// permanently dead nodes, every surviving requester's breakers driven
// open by a warm-up pass, and no rejoin — so requests keep taking the
// breaker's skip path rather than the RPC path.
func TestRequestAllocFreeWithOpenBreakers(t *testing.T) {
	sys, tr := benchSystem(t)
	for id := 0; id < 50 && id < len(tr.Users); id++ {
		sys.Fail(id) // abrupt: neighbours keep dangling links
	}
	drive := func(i int) {
		u := tr.Users[i%len(tr.Users)]
		if len(u.Subscriptions) == 0 {
			return
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			return
		}
		sys.Request(int(u.ID), ch.Videos[(i+1)%len(ch.Videos)])
	}
	// Warm-up: enough strikes against every dead contact to open the
	// breakers (and grow every breaker-set map to its final size).
	for i := 0; i < 4000; i++ {
		drive(i)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		drive(i)
	})
	if avg >= 1 {
		t.Fatalf("request path allocates %.2f allocs/op with open breakers, want <1", avg)
	}
}

// TestRequestAllocFreeWithTelemetry pins the full instrumented hot path:
// every Request is accompanied by the bounded histogram and the timeline
// updates the experiment recorder performs per request (request count plus
// startup-delay observation into an existing exp.Window), and the
// combination stays below 1 alloc/op. A window is a fixed record with an
// inline histogram, so filing into one is field updates; only the first
// observation in a window's histogram allocates its bucket range, which
// amortizes away exactly as it does in a long-running simulation.
func TestRequestAllocFreeWithTelemetry(t *testing.T) {
	sys, tr := benchSystem(t)
	var hist obs.Hist
	// One hour of simulated time in 10-minute windows, materialized before
	// the measured region as a running simulation would have them.
	tl := exp.Timeline{Width: 10 * time.Minute, Windows: make([]exp.Window, 6)}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		u := tr.Users[i%len(tr.Users)]
		if len(u.Subscriptions) == 0 {
			return
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			return
		}
		res := sys.Request(int(u.ID), ch.Videos[(i+1)%len(ch.Videos)])
		w := &tl.Windows[time.Duration(i%60)*time.Minute/tl.Width]
		w.Requests++
		// The exp layer derives the startup delay from hop count and
		// network timing; hops stands in for it here — what matters is
		// that a float lands in both histograms every iteration.
		hist.Add(float64(res.Hops))
		w.StartupMs.Add(float64(res.Hops))
	})
	if avg >= 1 {
		t.Fatalf("instrumented request path allocates %.2f allocs/op, want <1", avg)
	}
	if hist.Len() == 0 {
		t.Fatal("histogram recorded nothing")
	}
}

func TestRequestStaysAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer obs.Tracer
	}{
		{"untraced", nil},
		{"nop-tracer", obs.Nop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, tr := benchSystem(t)
			if tc.tracer != nil {
				sys.SetTracer(tc.tracer)
			}
			i := 0
			avg := testing.AllocsPerRun(2000, func() {
				i++
				u := tr.Users[i%len(tr.Users)]
				if len(u.Subscriptions) == 0 {
					return
				}
				ch := tr.Channel(u.Subscriptions[0])
				if ch == nil || len(ch.Videos) == 0 {
					return
				}
				sys.Request(int(u.ID), ch.Videos[(i+1)%len(ch.Videos)])
			})
			if avg >= 1 {
				t.Fatalf("request path allocates %.2f allocs/op with %s, want <1", avg, tc.name)
			}
		})
	}
}

// TestProbeAllocFree pins steady-state maintenance at 0 allocs/op on the
// probes that exercise all of it: a node whose inter-links are below N_h
// re-runs the server's per-category seeding, whose random channel order
// must come from the system's reusable buffer, not a fresh permutation.
func TestProbeAllocFree(t *testing.T) {
	sys, tr := benchSystem(t)
	i, reseeded := 0, 0
	probeNext := func() {
		for tries := 0; tries < len(tr.Users); tries++ {
			i++
			if n := i % len(tr.Users); sys.nodes[n].home >= 0 && !sys.inter.Full(n) {
				sys.Probe(n)
				reseeded++
				return
			}
		}
	}
	for range tr.Users {
		probeNext() // tops up what can be topped up, sizes the buffer
	}
	reseeded = 0
	if avg := testing.AllocsPerRun(2000, probeNext); avg != 0 {
		t.Fatalf("probe allocates %.0f allocs/op, want 0", avg)
	}
	if reseeded < 2000 {
		t.Fatalf("only %d of 2000 probes re-seeded inter-links", reseeded)
	}
	// A quiet probe reads the link count and prunes nothing; a suspect one,
	// after a neighbour's Fail, prunes that link. Both stay at 0 allocs/op
	// (the failed neighbour rejoins after each probe).
	n := slices.IndexFunc(tr.Users, func(u trace.User) bool { return sys.inner.Degree(int(u.ID)) > 0 })
	sys.Probe(n)
	if avg := testing.AllocsPerRun(2000, func() { sys.Probe(n) }); avg != 0 || sys.nodes[n].suspect {
		t.Fatalf("quiet probe allocates %.0f allocs/op (suspect %v), want 0", avg, sys.nodes[n].suspect)
	}
	pruned := sys.Ctr.LinksPruned
	if avg := testing.AllocsPerRun(2000, func() {
		nbs := sys.inter.NeighborsView(n)
		if inner := sys.inner.NeighborsView(n); len(inner) > 0 {
			nbs = inner
		}
		nb := nbs[0]
		sys.Fail(nb)
		sys.Probe(n)
		sys.Join(nb)
	}); avg != 0 {
		t.Fatalf("suspect probe allocates %.0f allocs/op, want 0", avg)
	}
	if got := sys.Ctr.LinksPruned - pruned; got < 2000 {
		t.Fatalf("2000 suspect probes pruned %d links", got)
	}
}

// TestFinishAllocFree pins the prefetch path at 0 allocs/op: Finish with
// prefetch on re-runs the shared top-M pick, whose skip predicate (the
// cache's HasPrefix method value) must not escape to the heap. The loop
// replays benchSystem's warm-up (user, video) pairs, so the caches hold
// every pick already and only the pick itself can allocate.
func TestFinishAllocFree(t *testing.T) {
	sys, tr := benchSystem(t)
	type pair struct {
		node int
		v    trace.VideoID
	}
	var pairs []pair
	prefixes := 0
	for _, u := range tr.Users {
		if len(u.Subscriptions) == 0 {
			continue
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			continue
		}
		pairs = append(pairs, pair{int(u.ID), ch.Videos[int(u.ID)%len(ch.Videos)]})
		prefixes += prefixOnly(sys.caches.Cache(int(u.ID)), tr)
	}
	if sys.cfg.PrefetchCount == 0 || prefixes == 0 {
		t.Fatal("warm-up prefetched nothing: the guard would measure no pick")
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		p := pairs[i%len(pairs)]
		sys.Finish(p.node, p.v)
	}); avg != 0 {
		t.Fatalf("finish allocates %.2f allocs/op, want 0", avg)
	}
}

// TestLeaveJoinAllocFree pins a session boundary at 0 allocs/op: a graceful
// leave remembers its neighbours in the node's own two lists, and the
// rejoin reconnects through the dense meshes.
func TestLeaveJoinAllocFree(t *testing.T) {
	sys, tr := benchSystem(t)
	for n := range tr.Users {
		sys.Leave(n) // first cycle sizes prevInner/prevInter
		sys.Join(n)
	}
	i, linked := 0, 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		n := i % len(tr.Users)
		sys.Leave(n)
		sys.Join(n)
		linked += sys.Links(n)
	}); avg != 0 {
		t.Fatalf("leave+join allocates %.0f allocs/op, want 0", avg)
	}
	if linked == 0 {
		t.Fatal("no rejoin reconnected: the cycle measured nothing")
	}
}

// TestRemoteLookupAllocFree pins the cross-cell lookup at 0 allocs/op: it
// sets the video the hit test matches, picks a channel member and floods
// that overlay through the system's reusable scratch, as a request's
// server-assisted phase does.
func TestRemoteLookupAllocFree(t *testing.T) {
	sys, tr := benchSystem(t)
	lookup := func(i int) bool {
		_, _, _, ok := sys.RemoteLookup(uint64(i), tr.Videos[i%len(tr.Videos)].ID)
		return ok
	}
	for i := range tr.Videos {
		lookup(i)
	}
	i, hits := 0, 0
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		if lookup(i) {
			hits++
		}
	}); avg != 0 {
		t.Fatalf("remote lookup allocates %.2f allocs/op, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("no remote lookup found a provider: the guard measured no hit")
	}
}
