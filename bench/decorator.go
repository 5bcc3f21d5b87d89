package main

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// op indexes the protocol calls the decorator times.
type op int

const (
	opJoin op = iota
	opLeave
	opFail
	opRequest
	opFinish
	opLinks
	opProbe
	opRemote
	numOps
)

// opStat aggregates one call site: per-call spans are folded into a
// count, a total and a histogram rather than stored.
type opStat struct {
	Count uint64
	Total time.Duration
	Hist  obs.Hist // nanoseconds per call
}

func (s *opStat) observe(d time.Duration) {
	s.Count++
	s.Total += d
	s.Hist.Add(float64(d))
}

// meanUs is the mean call time in microseconds (0 when never called), so
// count × mean adds up to the layer's busy time.
func (s *opStat) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total.Nanoseconds()) / 1e3 / float64(s.Count)
}

// protoStats is the decorator's accounting for one protocol instance.
// One event loop drives an instance at a time (a cell of a sharded run
// included), so it needs no lock; per-cell stats are merged after the run.
type protoStats struct {
	ops [numOps]opStat
}

func (p *protoStats) merge(o *protoStats) {
	for i := range p.ops {
		p.ops[i].Count += o.ops[i].Count
		p.ops[i].Total += o.ops[i].Total
		p.ops[i].Hist.Merge(&o.ops[i].Hist)
	}
}

// busy is the total time spent inside the protocol.
func (p *protoStats) busy() time.Duration {
	var d time.Duration
	for i := range p.ops {
		d += p.ops[i].Total
	}
	return d
}

// timedProtocol times the six vod.Protocol calls of the wrapped protocol.
type timedProtocol struct {
	inner vod.Protocol
	st    *protoStats
}

func (t *timedProtocol) Name() string { return t.inner.Name() }

func (t *timedProtocol) Join(node int) {
	start := time.Now()
	t.inner.Join(node)
	t.st.ops[opJoin].observe(time.Since(start))
}

func (t *timedProtocol) Leave(node int) {
	start := time.Now()
	t.inner.Leave(node)
	t.st.ops[opLeave].observe(time.Since(start))
}

func (t *timedProtocol) Fail(node int) {
	start := time.Now()
	t.inner.Fail(node)
	t.st.ops[opFail].observe(time.Since(start))
}

func (t *timedProtocol) Request(node int, v trace.VideoID) vod.RequestResult {
	start := time.Now()
	res := t.inner.Request(node, v)
	t.st.ops[opRequest].observe(time.Since(start))
	return res
}

func (t *timedProtocol) Finish(node int, v trace.VideoID) {
	start := time.Now()
	t.inner.Finish(node, v)
	t.st.ops[opFinish].observe(time.Since(start))
}

func (t *timedProtocol) Links(node int) int {
	start := time.Now()
	n := t.inner.Links(node)
	t.st.ops[opLinks].observe(time.Since(start))
	return n
}

// timedProbe adds a timed exp.Maintainer.
type timedProbe struct {
	m  exp.Maintainer
	st *protoStats
}

func (t timedProbe) Probe(node int) int {
	start := time.Now()
	n := t.m.Probe(node)
	t.st.ops[opProbe].observe(time.Since(start))
	return n
}

// timedRemote adds a timed exp.RemoteSearcher.
type timedRemote struct {
	r  exp.RemoteSearcher
	st *protoStats
}

func (t timedRemote) RemoteLookup(span uint64, v trace.VideoID) (provider, hops, msgs int, ok bool) {
	start := time.Now()
	provider, hops, msgs, ok = t.r.RemoteLookup(span, v)
	t.st.ops[opRemote].observe(time.Since(start))
	return
}

// The runners discover optional behaviour by type assertion, so a wrapper
// must expose exactly the optional interfaces of what it wraps: hiding
// exp.Maintainer silently deletes probing, inventing exp.Timed would call
// into nothing. One wrapper type exists per interface set a protocol of
// this repository has; the untimed interfaces are forwarded by embedding.

// wrapTimed is PA-VoD's set.
type wrapTimed struct {
	*timedProtocol
	exp.Timed
	obs.Instrumented
	obs.Traceable
}

// wrapMaintained is NetTube's set.
type wrapMaintained struct {
	*timedProtocol
	timedProbe
	exp.Timed
	obs.Instrumented
	obs.Traceable
}

// wrapFull is SocialTube's set.
type wrapFull struct {
	*timedProtocol
	timedProbe
	timedRemote
	exp.Timed
	exp.Repairer
	exp.Reseeder
	exp.SpanScoped
	obs.Instrumented
	obs.Traceable
}

// optional interface bits, for comparing a wrapper with what it wraps.
const (
	hasMaintainer = 1 << iota
	hasTimed
	hasRepairer
	hasReseeder
	hasRemoteSearcher
	hasSpanScoped
	hasInstrumented
	hasTraceable
)

// optionalSet reports which optional interfaces p implements.
func optionalSet(p vod.Protocol) int {
	set := 0
	if _, ok := p.(exp.Maintainer); ok {
		set |= hasMaintainer
	}
	if _, ok := p.(exp.Timed); ok {
		set |= hasTimed
	}
	if _, ok := p.(exp.Repairer); ok {
		set |= hasRepairer
	}
	if _, ok := p.(exp.Reseeder); ok {
		set |= hasReseeder
	}
	if _, ok := p.(exp.RemoteSearcher); ok {
		set |= hasRemoteSearcher
	}
	if _, ok := p.(exp.SpanScoped); ok {
		set |= hasSpanScoped
	}
	if _, ok := p.(obs.Instrumented); ok {
		set |= hasInstrumented
	}
	if _, ok := p.(obs.Traceable); ok {
		set |= hasTraceable
	}
	return set
}

const (
	setTimed      = hasTimed | hasInstrumented | hasTraceable
	setMaintained = setTimed | hasMaintainer
	setFull       = setMaintained | hasRepairer | hasReseeder | hasRemoteSearcher | hasSpanScoped
)

// decorate wraps p so that every call is timed into st. It fails, rather
// than hide or invent behaviour, when p's optional-interface set is not
// one a wrapper exists for.
func decorate(p vod.Protocol, st *protoStats) (vod.Protocol, error) {
	base := &timedProtocol{inner: p, st: st}
	switch optionalSet(p) {
	case setTimed:
		return wrapTimed{base, p.(exp.Timed), p.(obs.Instrumented), p.(obs.Traceable)}, nil
	case setMaintained:
		return wrapMaintained{base, timedProbe{p.(exp.Maintainer), st},
			p.(exp.Timed), p.(obs.Instrumented), p.(obs.Traceable)}, nil
	case setFull:
		return wrapFull{base, timedProbe{p.(exp.Maintainer), st}, timedRemote{p.(exp.RemoteSearcher), st},
			p.(exp.Timed), p.(exp.Repairer), p.(exp.Reseeder), p.(exp.SpanScoped),
			p.(obs.Instrumented), p.(obs.Traceable)}, nil
	}
	return nil, fmt.Errorf("bench: no timing wrapper for %s's optional-interface set %#b; add one in decorator.go", p.Name(), optionalSet(p))
}
