package obs

import (
	"encoding/json"
	"math"
	"time"
)

// Hist is a bounded log-bucketed histogram (HDR-style): observations
// land in one of histBuckets exponential buckets with 1/histSubCount
// relative width. Only the window of octaves actually observed is
// allocated (see counts), so memory is O(observed range) — 72 bytes
// empty, at most ~10 KiB — no matter how many values are recorded. It is
// the one aggregation type of every result: per-request series
// (startup delays at 1M+ users), per-finished-video series (link counts)
// and per-node series alike.
//
// Quantiles are estimated deterministically by walking the cumulative
// bucket counts and interpolating inside the landing bucket, then
// clamping to the exact observed [Min, Max]; with 32 sub-buckets per
// octave the relative error is at most ~3%. Count, Sum, Mean, Min and
// Max are exact. The zero value is ready to use; Hist is mergeable
// (Merge), so per-shard histograms combine into one without losing
// precision beyond the shared bucket layout.
//
// Hist is not safe for concurrent use; callers that share one (the emu
// cluster result) must hold their own lock. A by-value copy shares the
// bucket window with the original: readers that outlive the lock must
// take a Clone.
type Hist struct {
	count uint64
	zeros uint64 // observations <= 0 (e.g. exactly-zero prefix-cache startup delays)
	sum   float64
	min   float64
	max   float64
	// counts is a dense window over the absolute bucket range
	// [lo, lo+len(counts)), grown one whole octave at a time to cover
	// what was observed. Buckets outside the window are zero. Bucket
	// indices everywhere else (JSON, EachBucket, Merge) stay absolute.
	lo     int
	counts []uint64
}

const (
	// histSubBits sets 2^histSubBits linear sub-buckets per power-of-two
	// octave: 32 sub-buckets bound the relative bucket width to 1/32 of
	// the bucket's lower bound (~3% worst case).
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histMinExp / histMaxExp bound the covered magnitude range
	// [2^(histMinExp-1), 2^histMaxExp) — for millisecond-denominated
	// delays that is ~0.0005 ms to ~12 days. Out-of-range values clamp
	// into the first/last bucket; Min/Max still record them exactly.
	histMinExp  = -10
	histMaxExp  = 30
	histBuckets = (histMaxExp - histMinExp) * histSubCount
)

// histBucketIndex maps a positive value to its bucket.
func histBucketIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * histSubCount))
	if sub >= histSubCount { // frac == 1-ulp rounding guard
		sub = histSubCount - 1
	}
	return (exp-histMinExp)*histSubCount + sub
}

// histBucketBounds returns the half-open value range [lo, hi) bucket i covers.
func histBucketBounds(i int) (lo, hi float64) {
	exp := histMinExp + i/histSubCount
	sub := i % histSubCount
	lo = math.Ldexp(0.5+float64(sub)/(2*histSubCount), exp)
	hi = math.Ldexp(0.5+float64(sub+1)/(2*histSubCount), exp)
	return lo, hi
}

// cover grows the window to include the absolute bucket range [from, to),
// rounded out to whole octaves.
func (h *Hist) cover(from, to int) {
	from &^= histSubCount - 1
	to = (to + histSubCount - 1) &^ (histSubCount - 1)
	if len(h.counts) == 0 {
		h.lo = from // an empty window sits wherever it is first needed
	}
	if from >= h.lo && to <= h.lo+len(h.counts) {
		return
	}
	from, to = min(from, h.lo), max(to, h.lo+len(h.counts))
	grown := make([]uint64, to-from)
	copy(grown[h.lo-from:], h.counts)
	h.lo, h.counts = from, grown
}

// Clone returns a deep copy that shares no bucket storage with h.
func (h *Hist) Clone() Hist {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return c
}

// Add records one observation. Non-positive values are counted in a
// dedicated underflow bucket and quantile-estimated as 0 (prefix-cached
// requests legitimately report a 0 ms startup delay).
func (h *Hist) Add(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.zeros++
		return
	}
	i := histBucketIndex(v)
	if i < h.lo || i >= h.lo+len(h.counts) {
		h.cover(i, i+1)
	}
	h.counts[i-h.lo]++
}

// AddDuration records a duration in milliseconds.
func (h *Hist) AddDuration(d time.Duration) {
	h.Add(float64(d) / float64(time.Millisecond))
}

// Len returns the number of observations.
func (h *Hist) Len() int { return int(h.count) }

// Mean returns the exact arithmetic mean (0 if empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the exact smallest observation (0 if empty).
func (h *Hist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 if empty).
func (h *Hist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// clampObserved bounds a bucket-interpolated estimate by the exact
// observed range, so single-value and narrow distributions report exact
// quantiles.
func (h *Hist) clampObserved(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Percentile estimates the p-th percentile (p in [0, 100]) by walking
// the cumulative bucket counts and interpolating linearly inside the
// landing bucket. The estimate is deterministic for a given bucket state
// and monotonic in p.
func (h *Hist) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	rank := p / 100 * float64(h.count)
	cum := float64(h.zeros)
	if cum >= rank {
		return h.clampObserved(0)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := histBucketBounds(h.lo + i)
			return h.clampObserved(lo + (hi-lo)*(rank-prev)/float64(c))
		}
	}
	return h.Max()
}

// Merge folds other into h. Both histograms share the absolute bucket
// layout, so merging is exact: the merged histogram equals one that
// observed both value streams directly. Merging order never changes the
// result.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.zeros += other.zeros
	h.sum += other.sum
	if len(other.counts) > 0 {
		h.cover(other.lo, other.lo+len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[other.lo-h.lo+i] += c
	}
}

// HistSummary is the compact derived view of a Hist.
type HistSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P1    float64 `json:"p1"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Summary computes the summary statistics.
func (h *Hist) Summary() HistSummary {
	return HistSummary{
		Count: h.Len(),
		Mean:  h.Mean(),
		P1:    h.Percentile(1),
		P25:   h.Percentile(25),
		P50:   h.Percentile(50),
		P75:   h.Percentile(75),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// histJSON is the wire form: the summary plus the sparse non-zero
// buckets as [index, count] pairs in ascending index order — compact and
// byte-stable for a given bucket state, so same-seed results marshal
// identically.
type histJSON struct {
	HistSummary
	Zeros   uint64      `json:"zeros,omitempty"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON emits the summary plus the sparse buckets.
func (h Hist) MarshalJSON() ([]byte, error) {
	out := histJSON{HistSummary: h.Summary(), Zeros: h.zeros}
	for i, c := range h.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]uint64{uint64(h.lo + i), c})
		}
	}
	return json.Marshal(out)
}

// EachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's upper bound and the cumulative count of
// observations <= that bound (the Prometheus histogram `le` convention).
// The underflow bucket reports with bound 0.
func (h *Hist) EachBucket(fn func(upperBound float64, cumulative uint64)) {
	cum := uint64(0)
	if h.zeros > 0 {
		cum += h.zeros
		fn(0, cum)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := histBucketBounds(h.lo + i)
		fn(hi, cum)
	}
}
