package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Common sampler construction errors.
var (
	// ErrBadParameter indicates an out-of-range distribution parameter.
	ErrBadParameter = errors.New("dist: bad parameter")
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^s.
//
// The paper observes (Fig. 9) that video view counts within a channel follow
// a Zipf distribution with characteristic exponent s ≈ 1, and the prefetching
// analysis in §IV-B uses exactly this form.
type Zipf struct {
	n   int
	cdf []float64 // cdf[k] = P(rank <= k+1)
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: zipf n=%d", ErrBadParameter, n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("%w: zipf s=%v", ErrBadParameter, s)
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{n: n, cdf: cdf}, nil
}

// Sample draws a rank in [1, N].
func (z *Zipf) Sample(g *RNG) int {
	u := g.Float64()
	idx := sort.SearchFloat64s(z.cdf, u)
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx + 1
}

// P returns the probability mass of rank k (1-based).
func (z *Zipf) P(k int) float64 {
	if k < 1 || k > z.n {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}

// TopP returns the total probability mass of ranks 1..m, i.e. the chance a
// Zipf draw lands in the top m ranks. This is the paper's prefetch-accuracy
// formula: for a 25-video channel, TopP(1) ≈ 0.262 and TopP(3..4) ≈ 0.546.
func (z *Zipf) TopP(m int) float64 {
	if m <= 0 {
		return 0
	}
	if m >= z.n {
		return 1
	}
	return z.cdf[m-1]
}

// BoundedPareto samples from a Pareto distribution truncated to [lo, hi].
// It models the heavy-tailed quantities of the trace: subscribers per
// channel, views per video, videos per channel.
type BoundedPareto struct {
	alpha  float64
	lo, hi float64
	la, ha float64 // lo^alpha and hi^alpha, fixed per sampler
}

// NewBoundedPareto builds a bounded Pareto sampler with tail index alpha on
// the interval [lo, hi].
func NewBoundedPareto(alpha, lo, hi float64) (*BoundedPareto, error) {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: pareto alpha=%v lo=%v hi=%v", ErrBadParameter, alpha, lo, hi)
	}
	return &BoundedPareto{alpha: alpha, lo: lo, hi: hi, la: math.Pow(lo, alpha), ha: math.Pow(hi, alpha)}, nil
}

// Sample draws a value in [lo, hi] by inverse-CDF transform.
func (p *BoundedPareto) Sample(g *RNG) float64 {
	u, la, ha := g.Float64(), p.la, p.ha
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.alpha)
	if x < p.lo {
		x = p.lo
	}
	if x > p.hi {
		x = p.hi
	}
	return x
}

// LogNormal samples exp(mu + sigma*Z). It models video lengths, whose
// distribution on YouTube is approximately lognormal around the short-video
// regime the paper targets.
type LogNormal struct {
	mu, sigma float64
}

// NewLogNormal builds a lognormal sampler with location mu and scale sigma.
func NewLogNormal(mu, sigma float64) (*LogNormal, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("%w: lognormal sigma=%v", ErrBadParameter, sigma)
	}
	return &LogNormal{mu: mu, sigma: sigma}, nil
}

// Sample draws a lognormal value.
func (l *LogNormal) Sample(g *RNG) float64 {
	return math.Exp(l.mu + l.sigma*g.NormFloat64())
}

// Exponential returns an exponential sample with the given mean. The paper
// draws user off-times between sessions from a Poisson process, i.e.
// exponential inter-arrival gaps (mean 500 s in simulation, 2 min on
// PlanetLab).
func Exponential(g *RNG, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func Poisson(g *RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		v := mean + math.Sqrt(mean)*g.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Cumulative is a weight vector kept as its running sum, so a draw
// proportional to weight is one Float64 and a binary search rather than two
// passes over the vector — for vectors that are fixed once built (catalog
// popularity, category weights). The zero value is an empty vector.
//
// Add sums left to right, skipping non-positive weights, exactly as a linear
// scan over the raw weights would: the total and every threshold are the
// same floats, so Choice picks the index that scan picks from the same draw.
type Cumulative struct {
	acc []float64 // acc[i] = sum of the positive weights among the first i+1
}

// NewCumulative returns an empty vector with room for n weights, so one
// whose length is known up front never regrows its array.
func NewCumulative(n int) Cumulative { return Cumulative{acc: make([]float64, 0, n)} }

// Add appends a weight to the vector.
func (c *Cumulative) Add(w float64) {
	total := 0.0
	if n := len(c.acc); n > 0 {
		total = c.acc[n-1]
	}
	if w > 0 {
		total += w
	}
	c.acc = append(c.acc, total)
}

// Choice selects an index with probability proportional to its weight. It
// returns -1, without drawing, when the vector is empty or sums to zero.
func (c Cumulative) Choice(g *RNG) int {
	n := len(c.acc)
	if n == 0 || c.acc[n-1] == 0 {
		return -1
	}
	u := g.Float64() * c.acc[n-1]
	// The first index whose running sum exceeds u; a non-positive weight
	// repeats its predecessor's sum, so it is never the first.
	if i := sort.Search(n, func(i int) bool { return u < c.acc[i] }); i < n {
		return i
	}
	return n - 1
}
