package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestHistExactStats(t *testing.T) {
	var h Hist
	if h.Len() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty hist should report zeros everywhere")
	}
	vals := []float64{3, 1, 4, 1.5, 9, 2.6, 5, 3.5}
	sum := 0.0
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if h.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(vals))
	}
	if got := h.Mean(); math.Abs(got-sum/float64(len(vals))) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want exact 1/9", h.Min(), h.Max())
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 9 {
		t.Fatal("percentile endpoints must be the exact min/max")
	}
}

// TestHistQuantileAccuracy: with 32 sub-buckets per octave the relative
// quantile error against an exact sorted-sample quantile stays within a
// few percent across three orders of magnitude.
func TestHistQuantileAccuracy(t *testing.T) {
	var h Hist
	n := 10_000
	for i := 1; i <= n; i++ {
		h.Add(float64(i)) // uniform 1..n
	}
	for _, p := range []float64{1, 25, 50, 75, 90, 99} {
		exact := p / 100 * float64(n)
		got := h.Percentile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.04 {
			t.Fatalf("p%v = %v, exact %v (rel err %.3f)", p, got, exact, rel)
		}
	}
	// Monotonic in p.
	prev := -1.0
	for p := 0.0; p <= 100; p += 0.5 {
		q := h.Percentile(p)
		if q < prev {
			t.Fatalf("quantiles not monotonic: p%v=%v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestHistZeroAndNegative(t *testing.T) {
	var h Hist
	h.Add(0) // a prefix-cached request's startup delay
	h.Add(0)
	h.Add(10)
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want exact 0", h.Min())
	}
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("p50 = %v, want 0 (two of three observations are 0)", got)
	}
	if got := h.Percentile(99); math.Abs(got-10) > 0.4 {
		t.Fatalf("p99 = %v, want ~10", got)
	}
}

func TestHistAddDurationIsMilliseconds(t *testing.T) {
	var h Hist
	h.AddDuration(1500 * time.Millisecond)
	if got := h.Mean(); got != 1500 {
		t.Fatalf("AddDuration(1.5s) mean = %v ms, want 1500", got)
	}
}

// TestHistMergeMatchesDirect: merging shard histograms must equal one
// histogram that observed every value directly — byte-for-byte in JSON.
func TestHistMergeMatchesDirect(t *testing.T) {
	var all, a, b Hist
	for i := 0; i < 1000; i++ {
		// Dyadic values add exactly in any order, so the merged sum is
		// bit-identical to the direct sum.
		v := float64(i%97) * 0.25
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	allj, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, allj) {
		t.Fatalf("merged != direct\nmerged: %s\ndirect: %s", aj, allj)
	}
	// Merging an empty or nil histogram is a no-op.
	before := a.Summary()
	a.Merge(&Hist{})
	a.Merge(nil)
	if a.Summary() != before {
		t.Fatal("merging empty/nil changed the histogram")
	}
}

func TestHistJSONShape(t *testing.T) {
	var h Hist
	h.Add(0)
	h.Add(2)
	h.Add(250)
	buf, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "mean", "p50", "p99", "min", "max", "zeros", "buckets"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("hist JSON missing %q: %s", k, buf)
		}
	}
	if got["count"].(float64) != 3 || got["zeros"].(float64) != 1 {
		t.Fatalf("hist JSON counts wrong: %s", buf)
	}
}

// TestHistBoundedMemoryAtScale is the keep-every-observation regression
// pin: one million observations — the 1M-user scale sweep's per-request
// startup-delay volume — would be 8 MB of float64s; the histogram holds
// only the bucket window the values span.
func TestHistBoundedMemoryAtScale(t *testing.T) {
	var h Hist
	for i := 0; i < 1_000_000; i++ {
		h.Add(float64(i%100_000) / 3.0)
	}
	if h.Len() != 1_000_000 {
		t.Fatalf("Len = %d", h.Len())
	}
	if len(h.counts) > histBuckets {
		t.Fatalf("window holds %d buckets, more than the layout's %d", len(h.counts), histBuckets)
	}
	// Pin that the JSON stays compact too (sparse buckets, not
	// observations).
	buf, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Fatalf("hist JSON is %d bytes for 1M observations; the encoding must be O(buckets)", len(buf))
	}
}

func TestHistEachBucketCumulative(t *testing.T) {
	var h Hist
	h.Add(0)
	h.Add(1)
	h.Add(1)
	h.Add(100)
	var lastLE float64 = -1
	var lastCum uint64
	calls := 0
	h.EachBucket(func(le float64, cum uint64) {
		calls++
		if le <= lastLE {
			t.Fatalf("bucket bounds not increasing: %v after %v", le, lastLE)
		}
		if cum < lastCum {
			t.Fatalf("cumulative counts decreasing: %d after %d", cum, lastCum)
		}
		lastLE, lastCum = le, cum
	})
	if calls != 3 { // zeros, ~1, ~100
		t.Fatalf("EachBucket visited %d buckets, want 3", calls)
	}
	if lastCum != 4 {
		t.Fatalf("final cumulative %d, want 4", lastCum)
	}
}

func TestWritePromHistAndCounters(t *testing.T) {
	var h Hist
	h.Add(3)
	h.Add(700)
	var buf bytes.Buffer
	WritePromHist(&buf, "socialtube_startup_delay_ms", &h)
	out := buf.String()
	for _, want := range []string{
		"# TYPE socialtube_startup_delay_ms histogram",
		`socialtube_startup_delay_ms_bucket{le="+Inf"} 2`,
		"socialtube_startup_delay_ms_sum 703",
		"socialtube_startup_delay_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom hist missing %q:\n%s", want, out)
		}
	}

	var c Counters
	c.RequestsPeer = 7
	buf.Reset()
	WritePromCounters(&buf, "socialtube", &c)
	out = buf.String()
	if !strings.Contains(out, "socialtube_requests_peer_total 7") {
		t.Fatalf("prom counters missing requests_peer line:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE socialtube_requests_peer_total counter") {
		t.Fatalf("prom counters missing TYPE line:\n%s", out)
	}
}
