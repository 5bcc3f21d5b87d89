package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refHist is the fixed-array layout Hist had before its bucket window
// became auto-ranging: every bucket always allocated, indexed absolutely.
// It is the reference the windowed Hist must be indistinguishable from.
type refHist struct {
	count, zeros  uint64
	sum, min, max float64
	counts        [histBuckets]uint64
}

func (r *refHist) add(v float64) {
	if r.count == 0 || v < r.min {
		r.min = v
	}
	if r.count == 0 || v > r.max {
		r.max = v
	}
	r.count++
	r.sum += v
	if v <= 0 {
		r.zeros++
		return
	}
	r.counts[histBucketIndex(v)]++
}

func (r *refHist) merge(o *refHist) {
	if o.count == 0 {
		return
	}
	if r.count == 0 || o.min < r.min {
		r.min = o.min
	}
	if r.count == 0 || o.max > r.max {
		r.max = o.max
	}
	r.count += o.count
	r.zeros += o.zeros
	r.sum += o.sum
	for i := range r.counts {
		r.counts[i] += o.counts[i]
	}
}

func (r *refHist) percentile(p float64) float64 {
	switch {
	case r.count == 0:
		return 0
	case p <= 0:
		return r.min
	case p >= 100:
		return r.max
	}
	clamp := func(v float64) float64 { return math.Min(math.Max(v, r.min), r.max) }
	rank := p / 100 * float64(r.count)
	cum := float64(r.zeros)
	if cum >= rank {
		return clamp(0)
	}
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := histBucketBounds(i)
			return clamp(lo + (hi-lo)*(rank-prev)/float64(c))
		}
	}
	return r.max
}

func (r *refHist) summary() HistSummary {
	s := HistSummary{Count: int(r.count), P1: r.percentile(1), P25: r.percentile(25), P50: r.percentile(50),
		P75: r.percentile(75), P90: r.percentile(90), P99: r.percentile(99)}
	if r.count > 0 {
		s.Mean, s.Min, s.Max = r.sum/float64(r.count), r.min, r.max
	}
	return s
}

type bucketCall struct {
	le  float64
	cum uint64
}

func (r *refHist) buckets() (calls []bucketCall, sparse [][2]uint64) {
	cum := r.zeros
	if r.zeros > 0 {
		calls = append(calls, bucketCall{0, cum})
	}
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := histBucketBounds(i)
		calls = append(calls, bucketCall{hi, cum})
		sparse = append(sparse, [2]uint64{uint64(i), c})
	}
	return calls, sparse
}

// requireSameAsRef fails unless every observable of h equals the
// reference's: Percentile over a fine grid, Summary, the JSON bytes and
// the EachBucket call sequence.
func requireSameAsRef(t *testing.T, what string, h *Hist, r *refHist) {
	t.Helper()
	for p := -1.0; p <= 101; p += 0.25 {
		if got, want := h.Percentile(p), r.percentile(p); got != want {
			t.Fatalf("%s: Percentile(%v) = %v, reference %v", what, p, got, want)
		}
	}
	if got, want := h.Summary(), r.summary(); got != want {
		t.Fatalf("%s: Summary = %+v, reference %+v", what, got, want)
	}
	wantCalls, sparse := r.buckets()
	var gotCalls []bucketCall
	h.EachBucket(func(le float64, cum uint64) { gotCalls = append(gotCalls, bucketCall{le, cum}) })
	if !reflect.DeepEqual(gotCalls, wantCalls) {
		t.Fatalf("%s: EachBucket = %v, reference %v", what, gotCalls, wantCalls)
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(histJSON{HistSummary: r.summary(), Zeros: r.zeros, Buckets: sparse})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: JSON\n got %s\nwant %s", what, got, want)
	}
}

// histStream draws n values around 2^exp spanning `spread` octaves, mixed
// with exact zeros, negatives, values below the covered range (clamped
// into bucket 0) and above it (clamped into the last bucket).
func histStream(g *rand.Rand, n int, exp, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch g.Intn(12) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -g.Float64()
		case 2:
			out[i] = math.Ldexp(1+g.Float64(), histMinExp-3-g.Intn(20))
		case 3:
			out[i] = math.Ldexp(1+g.Float64(), histMaxExp+g.Intn(20))
		default:
			out[i] = math.Exp2(exp + spread*g.Float64())
		}
	}
	return out
}

// TestHistWindowMatchesFixedArray drives the auto-ranging Hist and the
// fixed-array reference with the same random streams — narrow and wide,
// far apart so the two windows are disjoint — and requires identical
// observables after every stream and after merging in both orders.
func TestHistWindowMatchesFixedArray(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := rand.New(rand.NewSource(seed))
		var h [2]Hist
		var r [2]refHist
		// Stream 0 sits low, stream 1 high; on even seeds neither draws a
		// clamped value, so the windows stay disjoint with a gap between.
		centres := [2]float64{-8 + 6*g.Float64(), 12 + 12*g.Float64()}
		for s := range h {
			vals := histStream(g, 1+g.Intn(3000), centres[s], 4*g.Float64())
			for _, v := range vals {
				if seed%2 == 0 && (v < math.Ldexp(1, histMinExp) || v >= math.Ldexp(1, histMaxExp-1)) {
					continue
				}
				h[s].Add(v)
				r[s].add(v)
			}
			requireSameAsRef(t, "stream", &h[s], &r[s])
		}
		if seed%2 == 0 && h[0].lo+len(h[0].counts) >= h[1].lo {
			t.Fatalf("seed %d: windows [%d,+%d) and [%d,+%d) are not disjoint", seed, h[0].lo, len(h[0].counts), h[1].lo, len(h[1].counts))
		}
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			into, from := h[order[0]].Clone(), &h[order[1]]
			refInto := r[order[0]]
			into.Merge(from)
			refInto.merge(&r[order[1]])
			requireSameAsRef(t, "merged", &into, &refInto)
		}
		// Clone took deep copies: the merges above left the sources alone.
		requireSameAsRef(t, "source after merge", &h[0], &r[0])
		var empty Hist
		empty.Merge(&h[1])
		h[1].Merge(&Hist{})
		requireSameAsRef(t, "into empty", &empty, &r[1])
		requireSameAsRef(t, "from empty", &h[1], &r[1])
	}
}

// TestHistFootprintTracksObservedRange pins what the window buys: an
// empty Hist owns no buckets, and a narrow distribution owns only the
// octaves it touched, however many observations it holds.
func TestHistFootprintTracksObservedRange(t *testing.T) {
	var h Hist
	if h.counts != nil {
		t.Fatal("empty Hist allocated a bucket window")
	}
	for i := 0; i < 1_000_000; i++ {
		h.Add(float64(1 + i%50)) // link counts: 1..50, six octaves
	}
	if got := len(h.counts); got > 6*histSubCount {
		t.Fatalf("1..50 occupies %d buckets, want at most six octaves (%d)", got, 6*histSubCount)
	}
}
