package core

import (
	"testing"

	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// benchSystem builds a populated SocialTube system: everyone online and
// attached, with enough watched videos that floods traverse real overlays.
func benchSystem(tb testing.TB) (*System, *trace.Trace) {
	tb.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 1
	cfg.Users = 1000
	cfg.Channels = 120
	tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := New(DefaultConfig(), tr)
	if err != nil {
		tb.Fatal(err)
	}
	for _, u := range tr.Users {
		sys.Join(int(u.ID))
	}
	// Warm the overlays and caches: each user requests and finishes one
	// video from its first subscribed channel.
	for _, u := range tr.Users {
		if len(u.Subscriptions) == 0 {
			continue
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			continue
		}
		v := ch.Videos[int(u.ID)%len(ch.Videos)]
		sys.Request(int(u.ID), v)
		sys.Finish(int(u.ID), v)
	}
	return sys, tr
}

// BenchmarkRequest measures Algorithm 1 end to end — the flood-dominated
// hot path every simulated video request takes.
func BenchmarkRequest(b *testing.B) {
	sys, tr := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := tr.Users[i%len(tr.Users)]
		node := int(u.ID)
		if len(u.Subscriptions) == 0 {
			continue
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			continue
		}
		// A video the node has not cached: rotate through the channel.
		v := ch.Videos[(i+1)%len(ch.Videos)]
		sys.Request(node, v)
	}
}

// BenchmarkRequestTraced is BenchmarkRequest with a no-op tracer installed:
// it prices the tracing seam itself (one nil-check per emit site plus the
// Event construction and interface call) and guards the hot path against a
// tracer-induced allocation creeping in.
func BenchmarkRequestTraced(b *testing.B) {
	sys, tr := benchSystem(b)
	sys.SetTracer(obs.Nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := tr.Users[i%len(tr.Users)]
		node := int(u.ID)
		if len(u.Subscriptions) == 0 {
			continue
		}
		ch := tr.Channel(u.Subscriptions[0])
		if ch == nil || len(ch.Videos) == 0 {
			continue
		}
		v := ch.Videos[(i+1)%len(ch.Videos)]
		sys.Request(node, v)
	}
}

// BenchmarkProbe measures one maintenance round for an attached node.
func BenchmarkProbe(b *testing.B) {
	sys, tr := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Probe(i % len(tr.Users))
	}
}
