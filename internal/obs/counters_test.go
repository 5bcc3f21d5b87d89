package obs_test

// Counter-correctness tests: drive each protocol over a trace small enough
// that every counter value can be derived by hand from the protocol
// definitions, then assert the full counter block. Any accounting drift —
// a double-counted flood message, a lookup attributed to the wrong
// hierarchy level — fails these tests with the exact field that moved.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// tinyTrace is one category, one channel with two videos (ids 0 and 1, most
// popular first), and two users A=0 and B=1, both subscribed to the channel.
func tinyTrace() *trace.Trace {
	mkVideo := func(id trace.VideoID, rank int) trace.Video {
		return trace.Video{
			ID: id, Channel: 0, Category: 0,
			Views: int64(100 / rank), Length: 4 * time.Minute, Rank: rank,
		}
	}
	return &trace.Trace{
		Categories: 1,
		Channels: []trace.Channel{{
			ID: 0, Primary: 0, Categories: []trace.CategoryID{0},
			Videos:      []trace.VideoID{0, 1},
			Subscribers: []trace.UserID{0, 1},
		}},
		Videos: []trace.Video{mkVideo(0, 1), mkVideo(1, 2)},
		Users: []trace.User{
			{ID: 0, Interests: []trace.CategoryID{0}, Subscriptions: []trace.ChannelID{0}},
			{ID: 1, Interests: []trace.CategoryID{0}, Subscriptions: []trace.ChannelID{0}},
		},
	}
}

const (
	nodeA = 0
	nodeB = 1
	v0    = trace.VideoID(0)
	v1    = trace.VideoID(1)
)

// driveChurnAndRequests runs the shared scenario skeleton: join both nodes,
// then the given request/finish schedule, then a graceful leave of A and an
// abrupt failure of B.
func driveChurn(p vod.Protocol, steps func()) {
	p.Join(nodeA)
	p.Join(nodeB)
	steps()
	p.Leave(nodeA)
	p.Fail(nodeB)
}

func requireCounters(t *testing.T, got, want obs.Counters) {
	t.Helper()
	if got == want {
		return
	}
	// Report the exact fields that moved, not two opaque structs.
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Uint() != wv.Field(i).Uint() {
			t.Errorf("%s = %d, want %d", gv.Type().Field(i).Name, gv.Field(i).Uint(), wv.Field(i).Uint())
		}
	}
	t.FailNow()
}

func TestSocialTubeCounters(t *testing.T) {
	sys, err := core.New(core.DefaultConfig(), tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewJSONL(&buf)
	sys.SetTracer(tracer)

	probeMsgs := 0
	driveChurn(sys, func() {
		// A requests v0: its channel flood finds nobody (no neighbours,
		// 0 messages, TTL exhausted), the category level is empty, the
		// server serves.
		if res := sys.Request(nodeA, v0); res.Source != vod.SourceServer {
			t.Fatalf("A req v0 = %+v, want server", res)
		}
		// A finishes v0 and prefetches the channel's top videos: only
		// v1's prefix is new.
		sys.Finish(nodeA, v0)
		// B requests v0: joining the channel overlay linked B to A, so
		// the flood hits A at hop 1 for exactly 1 message.
		if res := sys.Request(nodeB, v0); res.Source != vod.SourcePeer || res.Provider != nodeA || res.Hops != 1 {
			t.Fatalf("B req v0 = %+v, want peer A at hop 1", res)
		}
		sys.Finish(nodeB, v0)
		// B requests v1 with its prefix prefetched: the flood over the
		// B–A edge misses (2 messages: the query and its echo back),
		// and the server serves.
		res := sys.Request(nodeB, v1)
		if res.Source != vod.SourceServer || !res.PrefixCached {
			t.Fatalf("B req v1 = %+v, want server with prefix cached", res)
		}
		// B requests v0 again: a local cache hit, touching no level.
		if res := sys.Request(nodeB, v0); res.Source != vod.SourceCache {
			t.Fatalf("B req v0 again = %+v, want cache", res)
		}
		// One maintenance round on A probes its single live neighbour.
		probeMsgs = sys.Probe(nodeA)
	})

	if probeMsgs != 1 {
		t.Fatalf("probe sent %d messages, want 1 (A's only neighbour is B)", probeMsgs)
	}
	want := obs.Counters{
		LookupsChannel: 3, LookupsCategory: 2, LookupsServer: 2,
		HitsChannel:      1,
		FloodMsgsChannel: 3, // 0 (A misses alone) + 1 (B hits A) + 2 (B misses for v1)
		TTLExhausted:     2,
		Hops1:            1,
		RequestsCache:    1, RequestsPeer: 1, RequestsServer: 2,
		PrefetchHits: 1, PrefetchMisses: 2, PrefetchStored: 2,
		OverlayJoins: 2, OverlayLeaves: 1, OverlayFails: 1,
		ProbeMsgs: uint64(probeMsgs),
	}
	requireCounters(t, sys.ObsCounters().Snapshot(), want)

	// The emitted trace validates against the checked-in golden schema and
	// contains exactly the hand-counted events.
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	schema, err := obs.GoldenSchema()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := schema.ValidateJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]int{
		"join": 2, "leave": 1, "fail": 1,
		"flood": 3, "serve": 4, "prefetch": 2, "probe": 1,
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("trace event counts = %v, want %v", counts, wantCounts)
	}
}

func TestNetTubeCounters(t *testing.T) {
	nt, err := baseline.NewNetTube(baseline.DefaultNetTubeConfig(), tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	driveChurn(nt, func() {
		// A requests v0 fresh: no overlays joined, the server finds no
		// provider in v0's (empty) overlay and serves.
		if res := nt.Request(nodeA, v0); res.Source != vod.SourceServer {
			t.Fatalf("A req v0 = %+v, want server", res)
		}
		// A finishes v0; it has no neighbours, so nothing prefetches.
		nt.Finish(nodeA, v0)
		// B requests v0 fresh: the server directs it to A (server-level
		// assist, one contact message).
		if res := nt.Request(nodeB, v0); res.Source != vod.SourcePeer || res.Provider != nodeA {
			t.Fatalf("B req v0 = %+v, want server-directed peer A", res)
		}
		// B finishes v0; its only neighbour A caches only v0, which B
		// just watched — nothing prefetches.
		nt.Finish(nodeB, v0)
		// B requests v1 with overlay links: the cross-overlay flood
		// misses over the B–A edge (2 messages), the server serves.
		if res := nt.Request(nodeB, v1); res.Source != vod.SourceServer || res.PrefixCached {
			t.Fatalf("B req v1 = %+v, want server without prefix", res)
		}
	})
	want := obs.Counters{
		LookupsChannel: 1, LookupsServer: 3,
		HitsServerAssist: 1,
		FloodMsgsChannel: 2, FloodMsgsServer: 1,
		TTLExhausted: 1,
		Hops1:        1,
		RequestsPeer: 1, RequestsServer: 2,
		PrefetchMisses: 3,
		OverlayJoins:   2, OverlayLeaves: 1, OverlayFails: 1,
	}
	requireCounters(t, nt.ObsCounters().Snapshot(), want)
}

func TestPAVoDCounters(t *testing.T) {
	pa, err := baseline.NewPAVoD(baseline.PAVoDConfig{Seed: 1}, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	driveChurn(pa, func() {
		// A requests v0: nobody watches it yet, the server serves.
		if res := pa.Request(nodeA, v0); res.Source != vod.SourceServer {
			t.Fatalf("A req v0 = %+v, want server", res)
		}
		// B requests v0 while A still watches it: server-directed
		// assist from the concurrent watcher.
		if res := pa.Request(nodeB, v0); res.Source != vod.SourcePeer || res.Provider != nodeA {
			t.Fatalf("B req v0 = %+v, want watcher A", res)
		}
		pa.Finish(nodeA, v0)
		// B requests v1: no watchers (PA-VoD has no cache), server again.
		if res := pa.Request(nodeB, v1); res.Source != vod.SourceServer {
			t.Fatalf("B req v1 = %+v, want server", res)
		}
	})
	want := obs.Counters{
		LookupsServer: 3, FloodMsgsServer: 3,
		HitsServerAssist: 1,
		Hops1:            1,
		RequestsPeer:     1, RequestsServer: 2,
		PrefetchMisses: 3,
		OverlayJoins:   2, OverlayLeaves: 1, OverlayFails: 1,
	}
	requireCounters(t, pa.ObsCounters().Snapshot(), want)
}

// optional-interface bits of a protocol: the runners discover behaviour by
// type assertion, so the set each protocol implements is part of its
// contract (and what bench/'s timing wrappers are written against).
const (
	isMaintainer = 1 << iota
	isTimed
	isRepairer
	isReseeder
	isRemoteSearcher
	isSpanScoped
	isInstrumented
	isTraceable
)

func optionalSet(p vod.Protocol) int {
	set := 0
	for bit, ok := range []bool{ // in the order of the constants above
		implements[exp.Maintainer](p), implements[exp.Timed](p),
		implements[exp.Repairer](p), implements[exp.Reseeder](p),
		implements[exp.RemoteSearcher](p), implements[exp.SpanScoped](p),
		implements[obs.Instrumented](p), implements[obs.Traceable](p),
	} {
		if ok {
			set |= 1 << bit
		}
	}
	return set
}

// eventLog keeps every emitted event; the contract test drives each
// protocol from its own goroutine alone, so it needs no lock.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

func implements[I any](p vod.Protocol) bool {
	_, ok := p.(I)
	return ok
}

// TestProtocolContract drives each protocol through the same traced churn-
// and-request schedule over a generated trace and checks what the shared
// chassis promises for all of them: (a) every flood event carries the span
// of the serve event that closes its request, (b) request and prefetch
// accounting is conserved, and (c) the protocol implements exactly its
// optional-interface set — an embedded method that widened one would
// silently switch on a runner behaviour.
func TestProtocolContract(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Seed, cfg.Channels, cfg.Users, cfg.Categories, cfg.MaxInterestsPerUser = 3, 40, 200, 4, 4
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	const base = isTimed | isInstrumented | isTraceable
	cases := []struct {
		name     string
		build    func() (vod.Protocol, error)
		optional int
	}{
		{"SocialTube", func() (vod.Protocol, error) { return core.New(core.DefaultConfig(), tr) },
			base | isMaintainer | isRepairer | isReseeder | isRemoteSearcher | isSpanScoped},
		{"NetTube", func() (vod.Protocol, error) { return baseline.NewNetTube(baseline.DefaultNetTubeConfig(), tr) },
			base | isMaintainer},
		{"PA-VoD", func() (vod.Protocol, error) { return baseline.NewPAVoD(baseline.DefaultPAVoDConfig(), tr) },
			base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != tc.name {
				t.Errorf("Name() = %q, want %q", p.Name(), tc.name)
			}
			if got := optionalSet(p); got != tc.optional {
				t.Errorf("optional-interface set = %#b, want %#b", got, tc.optional)
			}
			log := &eventLog{}
			p.(obs.Traceable).SetTracer(log)
			prober, _ := p.(exp.Maintainer)

			g := dist.NewRNG(5)
			online := make([]bool, len(tr.Users))
			requests := uint64(0)
			for step := 0; step < 6000; step++ {
				p.(exp.Timed).SetNow(time.Duration(step) * time.Second)
				node := g.Intn(len(tr.Users))
				switch op := g.Intn(10); {
				case op == 0:
					p.Leave(node)
					online[node] = false
				case op == 1:
					p.Fail(node)
					online[node] = false
				case op == 2 && prober != nil:
					prober.Probe(node)
				default:
					if !online[node] {
						p.Join(node)
						online[node] = true
					}
					v := picker.First(g, &tr.Users[node])
					p.Request(node, v)
					p.Finish(node, v)
					requests++
				}
			}

			events := log.events
			// (a) A request's floods precede its serve, both on the
			// requesting node, so the floods pending for a node when
			// it is served are exactly that request's.
			pending := make(map[int][]uint64)
			floods := 0
			for _, e := range events {
				switch e.Kind {
				case obs.KindFlood:
					floods++
					pending[e.Node] = append(pending[e.Node], e.Span)
				case obs.KindServe:
					if e.Span == 0 {
						t.Fatalf("serve event without a span: %+v", e)
					}
					for _, span := range pending[e.Node] {
						if span != e.Span {
							t.Fatalf("node %d: flood span %d, closing serve span %d", e.Node, span, e.Span)
						}
					}
					delete(pending, e.Node)
				}
			}
			if floods == 0 || len(pending) != 0 {
				t.Fatalf("%d flood events, %d nodes with floods no serve closed", floods, len(pending))
			}
			// (b) Conservation.
			c := p.(obs.Instrumented).ObsCounters().Snapshot()
			if got := c.RequestsCache + c.RequestsPeer + c.RequestsServer; got != requests {
				t.Errorf("cache+peer+server = %d, want %d requests issued", got, requests)
			}
			if got, want := c.PrefetchHits+c.PrefetchMisses, requests-c.RequestsCache; got != want {
				t.Errorf("prefetch hits+misses = %d, want %d non-cache requests", got, want)
			}
		})
	}
}
