package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func buildTimeline(vals [][3]int64) *Timeline {
	tl := NewTimeline(time.Minute)
	req := tl.Counter("requests")
	del := tl.Hist("startupMs")
	load := tl.Counter("serverBytes")
	for _, v := range vals {
		at := time.Duration(v[0])
		req.Add(at, 1)
		del.Observe(at, float64(v[1]))
		load.Add(at, v[2])
	}
	return tl
}

func TestTimelineWindowing(t *testing.T) {
	tl := NewTimeline(time.Minute)
	req := tl.Counter("requests")
	req.Add(0, 1)
	req.Add(59*time.Second, 1)
	req.Add(60*time.Second, 1)
	req.Add(5*time.Minute, 2)
	if got := tl.Windows(); got != 6 {
		t.Fatalf("Windows = %d, want 6", got)
	}
	for i, want := range []int64{2, 1, 0, 0, 0, 2} {
		if got := req.Value(i); got != want {
			t.Fatalf("window %d = %d, want %d", i, got, want)
		}
	}
	// Re-registering a name returns the same series; a kind clash panics.
	if tl.Counter("requests") != req {
		t.Fatal("re-registering returned a new series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	tl.Hist("requests")
}

func TestTimelineHistSeries(t *testing.T) {
	tl := NewTimeline(time.Minute)
	d := tl.Hist("startupMs")
	d.Observe(10*time.Second, 100)
	d.Observe(20*time.Second, 200)
	d.Observe(90*time.Second, 400)
	h := d.HistAt(0)
	if h == nil || h.Len() != 2 {
		t.Fatalf("window 0 hist = %+v", h)
	}
	if d.HistAt(1).Len() != 1 {
		t.Fatal("window 1 should hold one observation")
	}
	if d.HistAt(5) != nil {
		t.Fatal("untouched window should have nil hist")
	}
}

// TestTimelineMergeOrderIndependent: merging per-shard timelines must
// equal direct recording, and (for the worker-invariance contract) the
// merged JSON must not depend on which shard recorded what.
func TestTimelineMergeMatchesDirect(t *testing.T) {
	vals := make([][3]int64, 0, 300)
	for i := 0; i < 300; i++ {
		vals = append(vals, [3]int64{int64(i) * int64(7*time.Second), int64(i % 50 * 13), int64(i * 100)})
	}
	direct := buildTimeline(vals)
	var parts [3]*Timeline
	for p := range parts {
		var sub [][3]int64
		for i, v := range vals {
			if i%3 == p {
				sub = append(sub, v)
			}
		}
		parts[p] = buildTimeline(sub)
	}
	merged := buildTimeline(nil)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	dj, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dj, mj) {
		t.Fatalf("merged timeline != direct\nmerged: %s\ndirect: %s", mj, dj)
	}
}

func TestTimelineMergeRejectsMismatch(t *testing.T) {
	a := NewTimeline(time.Minute)
	a.Counter("x")
	b := NewTimeline(time.Second)
	b.Counter("x")
	if err := a.Merge(b); err == nil {
		t.Fatal("window mismatch accepted")
	}
	c := NewTimeline(time.Minute)
	c.Hist("x")
	if err := a.Merge(c); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	d := NewTimeline(time.Minute)
	if err := a.Merge(d); err == nil {
		t.Fatal("series-count mismatch accepted")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestTimelineJSONShape(t *testing.T) {
	tl := buildTimeline([][3]int64{{int64(30 * time.Second), 120, 4096}})
	buf, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		WindowMs int64 `json:"windowMs"`
		Windows  int   `json:"windows"`
		Series   []struct {
			Name    string         `json:"name"`
			Kind    string         `json:"kind"`
			Values  []int64        `json:"values"`
			Windows []*HistSummary `json:"windows"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.WindowMs != 60_000 || got.Windows != 1 || len(got.Series) != 3 {
		t.Fatalf("timeline JSON = %s", buf)
	}
	if got.Series[0].Name != "requests" || got.Series[1].Name != "startupMs" || got.Series[2].Name != "serverBytes" {
		t.Fatalf("series not in registration order: %s", buf)
	}
	if got.Series[1].Windows[0] == nil || got.Series[1].Windows[0].Count != 1 {
		t.Fatalf("hist window missing: %s", buf)
	}
}

func TestPrettySpans(t *testing.T) {
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	events := []Event{
		{T: 1, Proto: "SocialTube", Kind: KindJoin, Node: 1, Video: -1, Provider: -1},                              // no span: skipped
		{T: 2, Proto: "SocialTube", Kind: KindFlood, Node: 1, Video: 7, Provider: -1, Span: 42, Level: "channel"},  // span 42
		{T: 3, Proto: "SocialTube", Kind: KindServe, Node: 1, Video: 7, Provider: 9, Span: 42, Source: "peer"},     // span 42
		{T: 4, Proto: "SocialTube", Kind: KindFlood, Node: 2, Video: 8, Provider: -1, Span: 43, Level: "category"}, // span 43
		{T: 5, Proto: "NetTube", Kind: KindServe, Node: 3, Video: 7, Provider: -1, Span: 42, Source: "server"},     // same id, other protocol: distinct span
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	n, err := PrettySpans(bytes.NewReader(in.Bytes()), &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("printed %d spans, want 3", n)
	}
	s := out.String()
	if !bytes.Contains(out.Bytes(), []byte("span SocialTube/42 (2 events)")) {
		t.Fatalf("span 42 not reconstructed:\n%s", s)
	}
	// Span ids restart per engine: the NetTube event with the same id
	// must not fold into the SocialTube chain.
	if !bytes.Contains(out.Bytes(), []byte("span NetTube/42 (1 events)")) {
		t.Fatalf("protocols sharing a span id were merged:\n%s", s)
	}
	// max bounds the span count.
	out.Reset()
	if n, err := PrettySpans(bytes.NewReader(in.Bytes()), &out, 1); err != nil || n != 1 {
		t.Fatalf("max=1 printed %d spans (err %v)", n, err)
	}
}
