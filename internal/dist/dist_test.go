package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZipfRejectsBadParameters(t *testing.T) {
	tests := []struct {
		name string
		n    int
		s    float64
	}{
		{name: "zero n", n: 0, s: 1},
		{name: "negative n", n: -5, s: 1},
		{name: "zero s", n: 10, s: 0},
		{name: "negative s", n: 10, s: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewZipf(tt.n, tt.s); err == nil {
				t.Fatalf("NewZipf(%d, %v) expected error, got nil", tt.n, tt.s)
			}
		})
	}
}

func TestZipfMassSumsToOne(t *testing.T) {
	z, err := NewZipf(25, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for k := 1; k <= 25; k++ {
		sum += z.P(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("zipf mass sums to %v, want 1", sum)
	}
}

func TestZipfMassIsMonotoneDecreasing(t *testing.T) {
	z, err := NewZipf(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 100; k++ {
		if z.P(k) > z.P(k-1)+1e-12 {
			t.Fatalf("P(%d)=%v > P(%d)=%v", k, z.P(k), k-1, z.P(k-1))
		}
	}
}

func TestZipfPOutOfRange(t *testing.T) {
	z, err := NewZipf(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.P(0); got != 0 {
		t.Errorf("P(0) = %v, want 0", got)
	}
	if got := z.P(11); got != 0 {
		t.Errorf("P(11) = %v, want 0", got)
	}
}

// TestZipfPrefetchAccuracyMatchesPaper reproduces the §IV-B analysis: for a
// channel with 25 videos and s=1, a single prefetch of the top video is
// watched next with probability ≈26.2%, and prefetching the top 3-4 raises
// accuracy to ≈54.6%.
func TestZipfPrefetchAccuracyMatchesPaper(t *testing.T) {
	z, err := NewZipf(25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.TopP(1); math.Abs(got-0.262) > 0.005 {
		t.Errorf("TopP(1) = %.4f, paper says ≈0.262", got)
	}
	// 3-4 prefetches: the paper quotes 54.6%, which matches TopP(4).
	if got := z.TopP(4); math.Abs(got-0.546) > 0.01 {
		t.Errorf("TopP(4) = %.4f, paper says ≈0.546", got)
	}
}

func TestZipfTopPBoundaries(t *testing.T) {
	z, err := NewZipf(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.TopP(0); got != 0 {
		t.Errorf("TopP(0) = %v, want 0", got)
	}
	if got := z.TopP(10); got != 1 {
		t.Errorf("TopP(n) = %v, want 1", got)
	}
	if got := z.TopP(99); got != 1 {
		t.Errorf("TopP(>n) = %v, want 1", got)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	z, err := NewZipf(50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(1)
	for i := 0; i < 10000; i++ {
		k := z.Sample(g)
		if k < 1 || k > 50 {
			t.Fatalf("sample %d out of [1,50]", k)
		}
	}
}

func TestZipfSampleFrequencyTracksMass(t *testing.T) {
	z, err := NewZipf(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(7)
	const n = 200000
	counts := make([]int, 21)
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	for k := 1; k <= 20; k++ {
		want := z.P(k)
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v, want %v", k, got, want)
		}
	}
}

func TestBoundedParetoRejectsBadParameters(t *testing.T) {
	tests := []struct {
		name          string
		alpha, lo, hi float64
	}{
		{name: "zero alpha", alpha: 0, lo: 1, hi: 10},
		{name: "zero lo", alpha: 1, lo: 0, hi: 10},
		{name: "hi below lo", alpha: 1, lo: 10, hi: 5},
		{name: "hi equals lo", alpha: 1, lo: 10, hi: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewBoundedPareto(tt.alpha, tt.lo, tt.hi); err == nil {
				t.Fatalf("expected error for alpha=%v lo=%v hi=%v", tt.alpha, tt.lo, tt.hi)
			}
		})
	}
}

func TestBoundedParetoSamplesWithinBounds(t *testing.T) {
	p, err := NewBoundedPareto(0.8, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(2)
	for i := 0; i < 10000; i++ {
		x := p.Sample(g)
		if x < 1 || x > 1e6 {
			t.Fatalf("sample %v outside [1, 1e6]", x)
		}
	}
}

func TestBoundedParetoIsHeavyTailed(t *testing.T) {
	p, err := NewBoundedPareto(0.7, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(3)
	const n = 50000
	small, large := 0, 0
	for i := 0; i < n; i++ {
		x := p.Sample(g)
		if x < 10 {
			small++
		}
		if x > 1e4 {
			large++
		}
	}
	if small < n/2 {
		t.Errorf("expected most mass near lo: %d/%d below 10", small, n)
	}
	if large == 0 {
		t.Error("expected a heavy tail: no samples above 1e4")
	}
}

func TestLogNormalRejectsBadSigma(t *testing.T) {
	if _, err := NewLogNormal(0, 0); err == nil {
		t.Fatal("expected error for sigma=0")
	}
	if _, err := NewLogNormal(0, -1); err == nil {
		t.Fatal("expected error for sigma=-1")
	}
}

func TestLogNormalIsPositive(t *testing.T) {
	l, err := NewLogNormal(5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if x := l.Sample(g); x <= 0 {
			t.Fatalf("lognormal sample %v not positive", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(g, 500)
	}
	mean := sum / n
	if math.Abs(mean-500) > 10 {
		t.Errorf("exponential mean %v, want ≈500", mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	g := NewRNG(5)
	if got := Exponential(g, 0); got != 0 {
		t.Errorf("Exponential(g, 0) = %v, want 0", got)
	}
	if got := Exponential(g, -3); got != 0 {
		t.Errorf("Exponential(g, -3) = %v, want 0", got)
	}
}

func TestPoissonMeanSmallAndLarge(t *testing.T) {
	g := NewRNG(6)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += Poisson(g, mean)
		}
		got := float64(sum) / n
		tol := 4 * math.Sqrt(mean/float64(n)) * 3 // generous CLT bound
		if tol < 0.05 {
			tol = 0.05
		}
		if math.Abs(got-mean) > mean*0.05+tol {
			t.Errorf("poisson mean=%v: empirical %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	g := NewRNG(6)
	if got := Poisson(g, 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(g, -1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRNG(8)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		idx := WeightedChoice(g, weights)
		if idx < 0 || idx > 2 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index selected %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio %v, want ≈3", ratio)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	g := NewRNG(9)
	if got := WeightedChoice(g, nil); got != -1 {
		t.Errorf("WeightedChoice(nil) = %d, want -1", got)
	}
	if got := WeightedChoice(g, []float64{0, 0}); got != -1 {
		t.Errorf("WeightedChoice(zeros) = %d, want -1", got)
	}
}

func TestRNGDeterminismUnderSeed(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

// Property: Zipf.TopP is monotone non-decreasing in m and bounded by [0, 1].
func TestZipfTopPMonotoneProperty(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := 0.1 + float64(sRaw%30)/10
		z, err := NewZipf(n, s)
		if err != nil {
			return false
		}
		prev := 0.0
		for m := 0; m <= n+1; m++ {
			cur := z.TopP(m)
			if cur < prev-1e-12 || cur < 0 || cur > 1+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bounded Pareto samples always stay within [lo, hi].
func TestBoundedParetoRangeProperty(t *testing.T) {
	f := func(seed int64, aRaw, loRaw, spanRaw uint16) bool {
		alpha := 0.1 + float64(aRaw%40)/10
		lo := 1 + float64(loRaw%1000)
		hi := lo + 1 + float64(spanRaw)
		p, err := NewBoundedPareto(alpha, lo, hi)
		if err != nil {
			return false
		}
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			x := p.Sample(g)
			if x < lo || x > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPairUniform pins what the latency models need from the stateless
// pair draw: symmetric, in [0, 1), defined for the server/tracker id -1,
// seed-dependent, uniform in mean and variance over 10^5 pairs, and
// uncorrelated between pairs that differ by one in either id.
func TestPairUniform(t *testing.T) {
	const n = 100_000
	var sum, sumSq, covA, covB float64
	for i := int64(0); i < n; i++ {
		a, b := i%317-1, i/317+i%7 // a covers -1..315
		u := PairUniform(9, a, b)
		if u < 0 || u >= 1 {
			t.Fatalf("PairUniform(9, %d, %d) = %v outside [0, 1)", a, b, u)
		}
		if rev := PairUniform(9, b, a); rev != u {
			t.Fatalf("PairUniform not symmetric for (%d, %d): %v vs %v", a, b, u, rev)
		}
		sum += u
		sumSq += u * u
		covA += (u - 0.5) * (PairUniform(9, a+1, b) - 0.5)
		covB += (u - 0.5) * (PairUniform(9, a, b+1) - 0.5)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean %v, want 0.5 within 1%%", mean)
	}
	if variance := sumSq/n - mean*mean; math.Abs(variance-1.0/12) > 0.01/12 {
		t.Errorf("variance %v, want 1/12 within 1%%", variance)
	}
	// Correlation of independent uniforms over n pairs is ~N(0, 1/n):
	// 0.02 is more than six standard deviations.
	for name, cov := range map[string]float64{"a+1": covA, "b+1": covB} {
		if corr := cov / n * 12; math.Abs(corr) > 0.02 {
			t.Errorf("adjacent pairs (%s) correlate: r = %v", name, corr)
		}
	}
	if PairUniform(1, -1, 5) == PairUniform(2, -1, 5) {
		t.Error("seed does not enter the draw")
	}
}

// cumulativeOf builds the running-sum form of a weight vector.
func cumulativeOf(weights []float64) Cumulative {
	var c Cumulative
	for _, w := range weights {
		c.Add(w)
	}
	return c
}

// TestCumulativeChoiceMatchesWeightedChoice: from the same seed the
// prefix-sum draw and the linear scan it replaced return the same index on
// every draw and leave the two RNGs in the same state — the bit-identity the
// trace generator and the picker rely on.
func TestCumulativeChoiceMatchesWeightedChoice(t *testing.T) {
	skewed := make([]float64, 545)
	g := NewRNG(3)
	for i := range skewed {
		skewed[i] = math.Exp(4 * g.NormFloat64()) // spans many orders of magnitude
	}
	vectors := map[string][]float64{
		"zeros and negatives": {0, 2.5, -1, 0, 1e-9, 7, -3, 0},
		"leading zero":        {0, 1, 3},
		"single":              {4.2},
		"skewed":              skewed,
		"all zero":            {0, 0, -1},
		"empty":               nil,
	}
	for name, weights := range vectors {
		c := cumulativeOf(weights)
		a, b := NewRNG(11), NewRNG(11)
		for i := 0; i < 100_000; i++ {
			if got, want := c.Choice(a), WeightedChoice(b, weights); got != want {
				t.Fatalf("%s: draw %d: Choice = %d, WeightedChoice = %d", name, i, got, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Errorf("%s: RNG streams diverged", name)
		}
	}
	// A vector with no positive weight returns -1 without drawing.
	a, b := NewRNG(5), NewRNG(5)
	if got := cumulativeOf([]float64{0, -2, 0}).Choice(a); got != -1 {
		t.Fatalf("all-zero Choice = %d, want -1", got)
	}
	if a.Int63() != b.Int63() {
		t.Error("all-zero Choice advanced the RNG")
	}
}

// TestPermIntoMatchesPerm: PermInto yields math/rand.Perm's permutation
// element for element and consumes the same draws, into a fresh buffer, a
// too-small one and a reused dirty one.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(17), NewRNG(17)
	buf := []int{-7, 99, 3} // dirty, and too small for most sizes below
	for round := 0; round < 200; round++ {
		n := round % 23 // includes 0 and 1
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(buf) != n {
			t.Fatalf("n=%d: PermInto returned %d elements", n, len(buf))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: PermInto = %v, Perm = %v", n, buf, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: RNG streams diverged", n)
		}
	}
}
