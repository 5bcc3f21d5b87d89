package main

import (
	"math"
	"sort"
)

// The harness keeps its own order statistics instead of borrowing
// internal/metrics: the ledger must read the same after a later change
// rewrites or deletes the program's helpers.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-th quantile (0..1) of an ascending slice by
// linear interpolation between closest ranks; NaN when empty.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := math.Min(math.Max(q, 0), 1) * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median returns the middle of xs; NaN when empty.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method the
// acceptance check uses); ok is false below two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	asc := sorted(xs)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure the bounds are judged against; ok is false when
// it cannot be computed.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / m), true
}

// knee bisects the grid lo, lo+step, …, hi for the highest point at which
// ok holds, assuming ok is monotone (true up to the knee, false beyond).
// It returns lo-step when even lo fails, and evaluates ok O(log n) times.
func knee(lo, hi, step float64, ok func(x float64) bool) float64 {
	n := int(math.Round((hi - lo) / step))
	// Invariant: grid point a passes (a = -1 stands for "none"), b fails.
	a, b := -1, n+1
	for b-a > 1 {
		mid := (a + b) / 2
		if ok(lo + float64(mid)*step) {
			a = mid
		} else {
			b = mid
		}
	}
	return lo + float64(a)*step
}
