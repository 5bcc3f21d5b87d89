package vod

import (
	"encoding/json"
	"time"

	"github.com/socialtube/socialtube/internal/obs"
)

// Counter is a monotonically increasing count.
type Counter struct {
	n int64
}

// MarshalJSON encodes the counter as its value. The receiver is a value so
// a counter reached through a struct marshalled by value encodes too.
func (c Counter) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.n)
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds delta (negative deltas are ignored).
func (c *Counter) Addn(delta int64) {
	if delta > 0 {
		c.n += delta
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Ledger is the delivery account of one run — the quantities behind the
// paper's Figs. 16–18, plotted once on PeerSim and once on PlanetLab. The
// simulator's exp.Result and the emulator's emu.ClusterResult embed it, so
// the accounting rule (Record) and the figures over it are stated once.
// Every series is a bounded histogram: a finished ledger retains nothing
// per request, per finished video or per node.
type Ledger struct {
	// StartupDelay has one observation (in milliseconds) per request a peer
	// or the server delivered; local cache hits have none.
	StartupDelay obs.Hist `json:"startupDelayMs"`
	// PeerBandwidth has one observation per node that fetched anything: the
	// fraction of its fetched videos that peers served. Close fills it.
	PeerBandwidth obs.Hist `json:"peerBandwidth"`
	// LinksByVideoIndex[k] has one observation per finished video: the
	// node's link count right after the (k+1)-th video of a session.
	LinksByVideoIndex []obs.Hist `json:"linksByVideoIndex"`
	// Hit counters by source; PrefixHits counts fetched requests whose
	// first chunk was already local (a prefetch hit).
	CacheHits  Counter `json:"cacheHits"`
	PrefixHits Counter `json:"prefixHits"`
	PeerHits   Counter `json:"peerHits"`
	ServerHits Counter `json:"serverHits"`
	// Messages counts query messages sent by the protocol.
	Messages Counter `json:"messages"`

	// split is each node's fetched videos by who served them, until Close.
	split []struct{ peer, server int32 }
}

// NewLedger returns the ledger of a run over nodes nodes (ids 0..nodes-1)
// whose sessions watch up to videosPerSession videos.
func NewLedger(nodes, videosPerSession int) Ledger {
	return Ledger{
		LinksByVideoIndex: make([]obs.Hist, videosPerSession),
		split:             make([]struct{ peer, server int32 }, nodes),
	}
}

// Record accounts one delivered request of node: its query messages, its
// source, and — unless the local cache served it — its startup delay, its
// prefetch hit and its share of the node's peer/server split.
func (l *Ledger) Record(node int, res RequestResult, startup time.Duration) {
	l.Messages.Addn(int64(res.Messages))
	switch res.Source {
	case SourceCache:
		l.CacheHits.Inc()
		return
	case SourcePeer:
		l.PeerHits.Inc()
		l.split[node].peer++
	default:
		l.ServerHits.Inc()
		l.split[node].server++
	}
	l.StartupDelay.AddDuration(startup)
	if res.PrefixCached {
		l.PrefixHits.Inc()
	}
}

// Links accounts a node's link count right after it finished the idx-th
// (0-based) video of a session.
func (l *Ledger) Links(idx, n int) {
	if idx < len(l.LinksByVideoIndex) {
		l.LinksByVideoIndex[idx].Add(float64(n))
	}
}

// Close folds the per-node split into PeerBandwidth, in node order, and
// releases it. Nothing is recorded after Close.
func (l *Ledger) Close() {
	for _, s := range l.split {
		if total := s.peer + s.server; total > 0 {
			l.PeerBandwidth.Add(float64(s.peer) / float64(total))
		}
	}
	l.split = nil
}

// Merge folds another closed ledger of the same shape — another cell of
// the same run — into this closed one.
func (l *Ledger) Merge(o *Ledger) {
	l.StartupDelay.Merge(&o.StartupDelay)
	l.PeerBandwidth.Merge(&o.PeerBandwidth)
	for k := range l.LinksByVideoIndex {
		l.LinksByVideoIndex[k].Merge(&o.LinksByVideoIndex[k])
	}
	l.CacheHits.Addn(o.CacheHits.Value())
	l.PrefixHits.Addn(o.PrefixHits.Value())
	l.PeerHits.Addn(o.PeerHits.Value())
	l.ServerHits.Addn(o.ServerHits.Value())
	l.Messages.Addn(o.Messages.Value())
}

// Delivered is the number of requests recorded: cache, peer and server
// hits together.
func (l *Ledger) Delivered() int64 {
	return l.CacheHits.Value() + l.PeerHits.Value() + l.ServerHits.Value()
}

// NormalizedPeerBandwidthPercentiles returns the paper's Fig. 16 triplet:
// the 1st, 50th and 99th percentile of per-node normalized peer bandwidth.
func (l *Ledger) NormalizedPeerBandwidthPercentiles() (p1, p50, p99 float64) {
	return l.PeerBandwidth.Percentile(1), l.PeerBandwidth.Percentile(50), l.PeerBandwidth.Percentile(99)
}
