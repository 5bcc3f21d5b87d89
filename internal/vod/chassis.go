package vod

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// Chassis is what every simulator protocol has and none of them decides:
// the trace and RNG, the node-online table, the counter block, the tracer
// and virtual clock, per-request span assignment, request accounting and
// one emitter per trace-event kind. SocialTube, NetTube and PA-VoD embed it
// and state only their decisions — which neighbours to keep, where to
// search, what to prefetch. Single-threaded, like the protocols.
//
// Node ids are dense (trace users are 0..len(Users)-1), so the online table
// is a slice indexed by node id; ids outside it are simply never online.
type Chassis struct {
	Trace *trace.Trace
	RNG   *dist.RNG
	// Ctr is the dense counter block, incremented with plain ++.
	Ctr obs.Counters
	// SpanBase is OR-ed into every span id the chassis assigns. Only a
	// protocol that is exp.SpanScoped sets it; the others keep zero.
	SpanBase uint64

	name   string
	online []bool
	// tracer receives the protocol's events; nil (the default) disables
	// tracing at the cost of one branch per emitter.
	tracer obs.Tracer
	now    time.Duration
	// spanSeq counts requests; span is the id of the request being
	// served, stamped on every event in its causal chain.
	spanSeq uint64
	span    uint64
}

// NewChassis builds the chassis of the protocol called name over the trace,
// with every node offline and the RNG seeded for the protocol's draws.
func NewChassis(name string, tr *trace.Trace, seed int64) (Chassis, error) {
	if tr == nil || len(tr.Users) == 0 {
		return Chassis{}, fmt.Errorf("%w: %s needs a non-empty trace", dist.ErrBadParameter, name)
	}
	return Chassis{Trace: tr, RNG: dist.NewRNG(seed), name: name, online: make([]bool, len(tr.Users))}, nil
}

// Name implements Protocol.
func (c *Chassis) Name() string { return c.name }

// ObsCounters implements obs.Instrumented.
func (c *Chassis) ObsCounters() *obs.Counters { return &c.Ctr }

// SetTracer implements obs.Traceable; a nil tracer disables tracing.
func (c *Chassis) SetTracer(t obs.Tracer) { c.tracer = t }

// SetNow is the experiment engine's clock hook (exp.Timed): it stamps trace
// events and drives whatever a protocol derives from elapsed virtual time.
func (c *Chassis) SetNow(now time.Duration) { c.now = now }

// Now returns the virtual time of the callback being served.
func (c *Chassis) Now() time.Duration { return c.now }

// Known reports whether node is a node of the trace.
func (c *Chassis) Known(node int) bool { return node >= 0 && node < len(c.online) }

// Online reports whether the node is currently in the system.
func (c *Chassis) Online(node int) bool { return c.Known(node) && c.online[node] }

// Arrive brings the node online, counting and tracing the join. It reports
// false, changing nothing, for an unknown node or one already online.
func (c *Chassis) Arrive(node int) bool {
	if !c.Known(node) || c.online[node] {
		return false
	}
	c.online[node] = true
	c.Ctr.OverlayJoins++
	c.emit(obs.KindJoin, node, -1, 0, 0)
	return true
}

// Depart takes the node offline — gracefully for obs.KindLeave, abruptly
// for obs.KindFail — counting and tracing the departure. It reports false,
// changing nothing, for a node that is not online.
func (c *Chassis) Depart(node int, kind obs.Kind) bool {
	if !c.Online(node) {
		return false
	}
	c.online[node] = false
	if kind == obs.KindFail {
		c.Ctr.OverlayFails++
	} else {
		c.Ctr.OverlayLeaves++
	}
	c.emit(kind, node, -1, 0, 0)
	return true
}

// BeginRequest opens a request: it assigns the span id that every event in
// the request's causal chain — the floods, a cross-cell query, the closing
// serve — carries, so a JSONL trace reconstructs per-request paths
// (obs.PrettySpans). Ids depend only on request order, so they are
// deterministic for a seed.
func (c *Chassis) BeginRequest() {
	c.spanSeq++
	c.span = c.SpanBase | c.spanSeq
}

// Account closes the request BeginRequest opened: it stamps the span on the
// result, counts the request source, the hop histogram of peer hits and the
// prefetch hit/miss split, and emits the serve event.
func (c *Chassis) Account(node int, v trace.VideoID, res RequestResult) RequestResult {
	res.Span = c.span
	switch res.Source {
	case SourceCache:
		c.Ctr.RequestsCache++
	case SourcePeer:
		c.Ctr.RequestsPeer++
		c.Ctr.AddHops(res.Hops)
	default:
		c.Ctr.RequestsServer++
	}
	if res.Source != SourceCache {
		if res.PrefixCached {
			c.Ctr.PrefetchHits++
		} else {
			c.Ctr.PrefetchMisses++
		}
	}
	if c.tracer != nil {
		provider := -1
		if res.Source == SourcePeer {
			provider = res.Provider
		}
		e := c.event(obs.KindServe, node, v, provider)
		e.Source, e.Hops, e.Msgs, e.Span = res.Source.String(), res.Hops, res.Messages, c.span
		c.tracer.Emit(e)
	}
	return res
}

// Flooded accounts one finished search at a hierarchy level (obs.Level*) of
// the request in progress: its message volume, the hit when ok, and the
// flood event. provider is ignored unless ok.
func (c *Chassis) Flooded(node int, v trace.VideoID, level string, ok bool, provider, hops, msgs int) {
	c.countSearch(level, ok, msgs)
	if c.tracer == nil {
		return
	}
	if !ok {
		provider = -1
	}
	e := c.event(obs.KindFlood, node, v, provider)
	e.Level, e.OK, e.Hops, e.Msgs, e.Span = level, ok, hops, msgs, c.span
	c.tracer.Emit(e)
}

// Queried accounts a server-level search run on behalf of a requester in
// another community cell. span is the requester's span (assigned by its
// home cell), so a merged trace links the hop across the shard mailbox
// back to the originating request; the requester is not a node here.
func (c *Chassis) Queried(span uint64, v trace.VideoID, ok bool, provider, hops, msgs int) {
	c.countSearch(obs.LevelServer, ok, msgs)
	if c.tracer == nil {
		return
	}
	if !ok {
		provider = -1
	}
	e := c.event(obs.KindQuery, -1, v, provider)
	e.OK, e.Hops, e.Msgs, e.Span = ok, hops, msgs, span
	c.tracer.Emit(e)
}

func (c *Chassis) countSearch(level string, ok bool, msgs int) {
	vol, hits := &c.Ctr.FloodMsgsServer, &c.Ctr.HitsServerAssist
	switch level {
	case obs.LevelChannel:
		vol, hits = &c.Ctr.FloodMsgsChannel, &c.Ctr.HitsChannel
	case obs.LevelCategory:
		vol, hits = &c.Ctr.FloodMsgsCategory, &c.Ctr.HitsCategory
	}
	*vol += uint64(msgs)
	if ok {
		*hits++
	}
}

// Probed accounts one maintenance round of the node.
func (c *Chassis) Probed(node, msgs int) {
	c.Ctr.ProbeMsgs += uint64(msgs)
	c.emit(obs.KindProbe, node, -1, 0, msgs)
}

// Prefetched accounts one first-chunk prefix the node stored.
func (c *Chassis) Prefetched(node int, v trace.VideoID) {
	c.Ctr.PrefetchStored++
	c.emit(obs.KindPrefetch, node, v, 0, 0)
}

// Repaired accounts one active self-repair round around a dead node: the
// replacement links its neighbours created and the messages they spent.
func (c *Chassis) Repaired(dead, links, msgs int) {
	c.Ctr.RepairCalls++
	c.Ctr.RepairedLinks += uint64(links)
	c.emit(obs.KindRepair, dead, -1, links, msgs)
}

// event fills the fields every trace event carries; video and provider are
// -1 when not applicable, because 0 is a valid id.
func (c *Chassis) event(kind obs.Kind, node int, video trace.VideoID, provider int) obs.Event {
	return obs.Event{T: int64(c.now), Proto: c.name, Kind: kind, Node: node, Video: int64(video), Provider: provider}
}

// emit sends a churn, prefetch or maintenance event, building it only when
// a tracer listens (the per-request emitters check before building theirs).
func (c *Chassis) emit(kind obs.Kind, node int, video trace.VideoID, hops, msgs int) {
	if c.tracer != nil {
		e := c.event(kind, node, video, -1)
		e.Hops, e.Msgs = hops, msgs
		c.tracer.Emit(e)
	}
}
