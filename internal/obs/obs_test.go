package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCountersSnapshotAndRows(t *testing.T) {
	var c Counters
	// Give every field a distinct value through reflection so a skipped or
	// swapped field in Snapshot/Rows cannot go unnoticed.
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	snap := c.Snapshot()
	if snap != c {
		t.Fatalf("snapshot differs from source:\n%+v\n%+v", snap, c)
	}
	rows := snap.Rows()
	if len(rows) != v.NumField() {
		t.Fatalf("Rows covers %d of %d fields", len(rows), v.NumField())
	}
	seen := make(map[string]bool)
	for i, row := range rows {
		if row.Name == "" || strings.Contains(row.Name, ",") {
			t.Fatalf("row %d has bad name %q (missing or malformed json tag)", i, row.Name)
		}
		if seen[row.Name] {
			t.Fatalf("duplicate row name %q", row.Name)
		}
		seen[row.Name] = true
		if row.Value != uint64(i+1) {
			t.Fatalf("row %q = %d, want %d (declaration order broken)", row.Name, row.Value, i+1)
		}
	}
}

func TestCountersJSONStable(t *testing.T) {
	var c Counters
	c.LookupsChannel = 7
	a, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("marshal not stable:\n%s\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"lookupsChannel":7`)) {
		t.Fatalf("missing tagged field: %s", a)
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	// Distinct per-field values so a skipped or swapped field in Merge
	// cannot cancel out.
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Merge(b)
	for i := 0; i < va.NumField(); i++ {
		want := uint64(i+1) + uint64(100*(i+1))
		if got := va.Field(i).Uint(); got != want {
			t.Fatalf("field %d after merge = %d, want %d", i, got, want)
		}
	}
	// Merging a zero block changes nothing.
	before := a
	a.Merge(Counters{})
	if a != before {
		t.Fatal("merging zero counters changed the block")
	}
}

func TestAddHops(t *testing.T) {
	var c Counters
	for _, h := range []int{0, 1, 2, 3, 4, 5, 9} {
		c.AddHops(h)
	}
	want := Counters{Hops1: 2, Hops2: 1, Hops3: 1, Hops4: 1, HopsMore: 2}
	if c != want {
		t.Fatalf("histogram = %+v, want %+v", c, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	in := []Event{
		{T: 1, Proto: "SocialTube", Kind: KindFlood, Node: 3, Video: 0, Provider: 5, Level: LevelChannel, OK: true, Hops: 2, Msgs: 7},
		{T: 2, Proto: "NetTube", Kind: KindServe, Node: 4, Video: 1, Provider: -1, Source: "server"},
		{T: 3, Proto: "PA-VoD", Kind: KindJoin, Node: 5, Video: -1, Provider: -1},
	}
	for _, e := range in {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Total() != uint64(len(in)) {
		t.Fatalf("total = %d, want %d", j.Total(), len(in))
	}
	dec := json.NewDecoder(&buf)
	for i, want := range in {
		var got Event
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d round-trip = %+v, want %+v", i, got, want)
		}
	}
}

type failWriter struct{ err error }

func (w *failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&failWriter{err: io.ErrClosedPipe})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		j.Emit(Event{Node: i})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("expected sticky write error")
	}
	if err := j.Flush(); err == nil {
		t.Fatal("a second Flush lost the failure")
	}
}

func TestOpenJSONLAndPretty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	j, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Emit(Event{T: int64(i), Proto: "SocialTube", Kind: KindPrefetch, Node: i, Video: int64(i), Provider: -1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	n, err := Pretty(f, &out, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("printed %d events, want 3 (max honoured)", n)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3 {
		t.Fatalf("output has %d lines:\n%s", lines, out.String())
	}
	if !strings.Contains(out.String(), "prefetch") {
		t.Fatalf("output misses event kind:\n%s", out.String())
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

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindFlood, Level: LevelChannel, Msgs: 4}, "flood"},
		{Event{Kind: KindServe, Source: "peer", Provider: 9}, "serve"},
		{Event{Kind: KindPrefetch, Video: 12}, "prefetch"},
		{Event{Kind: KindProbe, Msgs: 3}, "probe"},
		{Event{Kind: KindJoin}, "join"},
		{Event{Kind: KindLeave}, "leave"},
		{Event{Kind: KindFail}, "fail"},
	}
	for _, c := range cases {
		if s := c.e.String(); !strings.Contains(s, c.want) {
			t.Fatalf("String() = %q, want it to mention %q", s, c.want)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	s, err := GoldenSchema()
	if err != nil {
		t.Fatal(err)
	}
	base := func() map[string]any {
		return map[string]any{
			"t": 1.0, "proto": "SocialTube", "kind": "flood",
			"node": 1.0, "video": 0.0, "provider": -1.0,
		}
	}
	if err := s.ValidateEvent(base()); err != nil {
		t.Fatalf("minimal flood event rejected: %v", err)
	}
	ev := base()
	ev["level"] = "channel"
	ev["ok"] = true
	ev["msgs"] = 3.0
	if err := s.ValidateEvent(ev); err != nil {
		t.Fatalf("full flood event rejected: %v", err)
	}
	bad := base()
	bad["kind"] = "teleport"
	if err := s.ValidateEvent(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	missing := base()
	delete(missing, "video")
	if err := s.ValidateEvent(missing); err == nil {
		t.Fatal("missing required key accepted")
	}
	extra := base()
	extra["source"] = "peer" // serve-only key on a flood event
	if err := s.ValidateEvent(extra); err == nil {
		t.Fatal("extra key accepted")
	}
}

func TestValidateJSONL(t *testing.T) {
	s, err := GoldenSchema()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Proto: "SocialTube", Kind: KindFlood, Video: -1, Provider: -1, Level: LevelChannel, Msgs: 2})
	j.Emit(Event{Proto: "SocialTube", Kind: KindServe, Video: 3, Provider: 7, Source: "peer", Hops: 1, Msgs: 2})
	j.Emit(Event{Proto: "SocialTube", Kind: KindServe, Video: 3, Provider: -1, Source: "server"})
	j.Emit(Event{Proto: "SocialTube", Kind: KindPrefetch, Video: 4, Provider: -1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	counts, err := s.ValidateJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"flood": 1, "serve": 2, "prefetch": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	// A malformed trace fails with a line number.
	if _, err := s.ValidateJSONL(strings.NewReader("{\"kind\":\"flood\"}\n")); err == nil {
		t.Fatal("trace missing required keys accepted")
	}
}

func TestServeMetrics(t *testing.T) {
	var c Counters
	c.RequestsPeer = 11
	srv, err := ServeMetrics("127.0.0.1:0", func() any {
		return map[string]any{"counters": c.Snapshot()}
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, "http://"+srv.Addr()+"/metrics", http.StatusOK)
	var got struct {
		Counters Counters `json:"counters"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if got.Counters.RequestsPeer != 11 {
		t.Fatalf("metrics counters = %+v", got.Counters)
	}
	// pprof is opt-in: absent here...
	httpGet(t, "http://"+srv.Addr()+"/debug/pprof/", http.StatusNotFound)

	// ...and mounted when enabled.
	srv2, err := ServeMetrics("127.0.0.1:0", func() any { return struct{}{} }, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	httpGet(t, "http://"+srv2.Addr()+"/debug/pprof/", http.StatusOK)

	if _, err := ServeMetrics("127.0.0.1:0", nil, nil, false); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func httpGet(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

func ExampleEvent_String() {
	e := Event{T: int64(1500e6), Proto: "SocialTube", Kind: KindProbe, Node: 7, Video: -1, Provider: -1, Msgs: 5}
	fmt.Println(e.String())
	// Output: 1.5s         SocialTube node 7     probe msgs=5
}
