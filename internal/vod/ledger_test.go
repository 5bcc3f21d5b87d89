package vod

import (
	"encoding/json"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(5)
	c.Addn(-3) // ignored
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}

// TestCounterJSON: a counter encodes as its value however it is reached —
// by pointer, by value, or as a field of a struct marshalled by value (a
// pointer-receiver MarshalJSON rendered the last two as {}).
func TestCounterJSON(t *testing.T) {
	var c Counter
	c.Addn(7)
	byValue := struct {
		Hits Counter `json:"hits"`
	}{c}
	for name, tc := range map[string]struct {
		in   any
		want string
	}{
		"pointer":         {&c, "7"},
		"value":           {c, "7"},
		"field, by value": {byValue, `{"hits":7}`},
	} {
		raw, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.want {
			t.Errorf("%s: counter json = %s, want %s", name, raw, tc.want)
		}
	}
}

// outcome is one delivered request of the ledger tests' fixed sequence.
type outcome struct {
	node int
	res  RequestResult
}

// ledgerOutcomes covers every source, a prefix hit on a peer and on a
// server fetch, a (meaningless) prefix flag on a cache hit, a node that
// only ever hits its cache, and one that never requests.
func ledgerOutcomes() []outcome {
	return []outcome{
		{0, RequestResult{Source: SourceServer, Messages: 3}},
		{0, RequestResult{Source: SourcePeer, Messages: 2, Hops: 1}},
		{1, RequestResult{Source: SourcePeer, Messages: 1, PrefixCached: true}},
		{0, RequestResult{Source: SourceCache}},
		{2, RequestResult{Source: SourceCache, PrefixCached: true}},
		{1, RequestResult{Source: SourcePeer, Messages: 4}},
		{3, RequestResult{Source: SourceServer, Messages: 5, PrefixCached: true}},
		{1, RequestResult{Source: SourceServer, Messages: 2}},
		{3, RequestResult{Source: SourceServer}},
		{2, RequestResult{Source: SourceCache}},
	}
}

const ledgerNodes = 5 // node 4 never requests

// fill records the outcomes whose node satisfies keep on a fresh ledger and
// closes it.
func fill(keep func(node int) bool) Ledger {
	l := NewLedger(ledgerNodes, 2)
	for i, o := range ledgerOutcomes() {
		if keep(o.node) {
			l.Record(o.node, o.res, time.Duration(i+1)*time.Millisecond)
			l.Links(i%3, o.node+1) // index 2 is past the session length: dropped
		}
	}
	l.Close()
	return l
}

// TestLedgerConservation asserts the laws every delivery figure relies on,
// over the whole sequence on one ledger and over two halves (the nodes split
// either way, as a partitioned run splits them) merged in either order.
func TestLedgerConservation(t *testing.T) {
	all := func(int) bool { return true }
	low := func(n int) bool { return n < 2 }
	even := func(n int) bool { return n%2 == 0 }
	not := func(f func(int) bool) func(int) bool { return func(n int) bool { return !f(n) } }
	merged := func(a, b Ledger) Ledger {
		a.Merge(&b)
		return a
	}
	whole := fill(all)
	for name, l := range map[string]Ledger{
		"one ledger":   whole,
		"low + high":   merged(fill(low), fill(not(low))),
		"high + low":   merged(fill(not(low)), fill(low)),
		"even + odd":   merged(fill(even), fill(not(even))),
		"odd + even":   merged(fill(not(even)), fill(even)),
		"whole + none": merged(fill(all), fill(not(all))),
	} {
		cache, peer, server := l.CacheHits.Value(), l.PeerHits.Value(), l.ServerHits.Value()
		if got, want := cache+peer+server, int64(len(ledgerOutcomes())); got != want || l.Delivered() != want {
			t.Errorf("%s: cache %d + peer %d + server %d = %d (Delivered %d), want %d records",
				name, cache, peer, server, got, l.Delivered(), want)
		}
		if cache != 3 || peer != 3 || server != 4 || l.Messages.Value() != 17 {
			t.Errorf("%s: cache/peer/server/messages = %d/%d/%d/%d, want 3/3/4/17",
				name, cache, peer, server, l.Messages.Value())
		}
		if got := int64(l.StartupDelay.Len()); got != peer+server {
			t.Errorf("%s: %d startup observations, want one per fetched request (%d)", name, got, peer+server)
		}
		if got := l.PrefixHits.Value(); got != 2 || got > peer+server {
			t.Errorf("%s: %d prefix hits, want 2 (a cache hit's prefix flag does not count)", name, got)
		}
		// Nodes 0, 1 and 3 fetched; node 2 only hit its cache, node 4 was idle.
		if got := l.PeerBandwidth.Len(); got != 3 {
			t.Errorf("%s: %d peer-bandwidth observations, want one per node that fetched (3)", name, got)
		}
		if min, max := l.PeerBandwidth.Min(), l.PeerBandwidth.Max(); min != 0 || max < 0.6 || max > 0.7 {
			t.Errorf("%s: peer share spans [%v, %v], want node 3's 0 up to node 1's 2/3", name, min, max)
		}
		if a, b, sum := l.LinksByVideoIndex[0].Len(), l.LinksByVideoIndex[1].Len(), 7; a+b != sum || len(l.LinksByVideoIndex) != 2 {
			t.Errorf("%s: %d + %d link observations over %d indices, want %d over 2", name, a, b, len(l.LinksByVideoIndex), sum)
		}
		// Merge order and the split never show in a marshalled ledger.
		want, _ := json.Marshal(whole)
		if got, err := json.Marshal(l); err != nil || string(got) != string(want) {
			t.Errorf("%s: marshals differently from the unsplit ledger (%v):\n%s\nvs\n%s", name, err, got, want)
		}
	}
}
