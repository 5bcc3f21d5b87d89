package main

import (
	"testing"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// bareMaintainer is a protocol whose optional-interface set no protocol of
// the repository has: only exp.Maintainer.
type bareMaintainer struct{ probes int }

func (*bareMaintainer) Name() string { return "bare" }
func (*bareMaintainer) Join(int)     {}
func (*bareMaintainer) Leave(int)    {}
func (*bareMaintainer) Fail(int)     {}
func (*bareMaintainer) Request(int, trace.VideoID) vod.RequestResult {
	return vod.RequestResult{Source: vod.SourceServer}
}
func (*bareMaintainer) Finish(int, trace.VideoID) {}
func (*bareMaintainer) Links(int) int             { return 0 }
func (b *bareMaintainer) Probe(int) int           { b.probes++; return 1 }

// The runners find probing, clocks, repair and remote lookup by type
// assertion: a wrapper that hides one silently deletes the behaviour, one
// that adds one calls into nothing.
func TestDecoratorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	z := simSizes{Channels: 30, Categories: 4, Users: 40, Sessions: 1, Videos: 2, WatchScale: 1}
	s := z.scale(1)
	tr, err := z.buildTrace()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"SocialTube": setFull, "NetTube": setMaintained, "PA-VoD": setTimed}
	for _, name := range simProtocols {
		p, err := s.Protocol(name, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := optionalSet(p); got != want[name] {
			t.Errorf("%s implements optional set %#b, the harness expects %#b", name, got, want[name])
		}
		st := &protoStats{}
		w, err := decorate(p, st)
		if err != nil {
			t.Fatalf("decorate(%s): %v", name, err)
		}
		if got := optionalSet(w); got != optionalSet(p) {
			t.Errorf("decorated %s exposes optional set %#b, wrapped protocol has %#b", name, got, optionalSet(p))
		}
		if w.Name() != p.Name() {
			t.Errorf("decorated name %q != %q", w.Name(), p.Name())
		}
		w.Join(0)
		w.Request(0, tr.Videos[0].ID)
		w.Finish(0, tr.Videos[0].ID)
		if m, ok := w.(exp.Maintainer); ok {
			m.Probe(0)
			if st.ops[opProbe].Count != 1 {
				t.Errorf("%s: probe not timed", name)
			}
		}
		w.Leave(0)
		for _, o := range []op{opJoin, opRequest, opFinish, opLeave} {
			if st.ops[o].Count != 1 || st.ops[o].Hist.Len() != 1 {
				t.Errorf("%s: op %d counted %d times", name, o, st.ops[o].Count)
			}
		}
		if st.busy() <= 0 {
			t.Errorf("%s: no busy time recorded", name)
		}
	}
	if _, err := decorate(&bareMaintainer{}, &protoStats{}); err == nil {
		t.Error("decorate accepted an optional-interface set it has no wrapper for")
	}
}

func TestProtoStatsMerge(t *testing.T) {
	var a, b protoStats
	a.ops[opRequest].observe(10)
	b.ops[opRequest].observe(30)
	b.ops[opProbe].observe(5)
	a.merge(&b)
	if a.ops[opRequest].Count != 2 || a.ops[opRequest].Total != 40 || a.ops[opProbe].Count != 1 || a.busy() != 45 {
		t.Errorf("merge gave %+v", a.ops[opRequest])
	}
	if got := a.ops[opRequest].meanUs(); !near(got, 0.02) {
		t.Errorf("meanUs = %v, want 0.02", got)
	}
}
