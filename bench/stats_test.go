package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}, {-1, 10}, {2, 50}} {
		if got := quantile(asc, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("median reordered its input")
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, ok := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	q1, q3, ok = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !ok || !near(q1, 1.25) || !near(q3, 5.75) {
		t.Errorf("quartiles = %v, %v, %v; want 1.25, 5.75", q1, q3, ok)
	}
	q1, q3, ok = quartiles([]float64{10, 20})
	if !ok || !near(q1, 7.5) || !near(q3, 22.5) {
		t.Errorf("quartiles of two = %v, %v, %v; want 7.5, 22.5", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || !near(s, 1) {
		t.Errorf("spread(1..10) = %v, %v; want 1", s, ok)
	}
}

func TestKneeBisection(t *testing.T) {
	for _, want := range []float64{2, 2.5, 8.5, 11, 35.5, 36} {
		calls := 0
		got := knee(2, 36, 0.5, func(x float64) bool {
			calls++
			return x <= want+0.2 // monotone: passes up to the knee
		})
		if got != want {
			t.Errorf("knee = %v, want %v", got, want)
		}
		if calls > 8 { // 69 grid points: ceil(log2(70)) = 7 probes
			t.Errorf("knee at %v took %d evaluations", want, calls)
		}
	}
	if got := knee(2, 36, 0.5, func(float64) bool { return false }); got != 1.5 {
		t.Errorf("knee with nothing passing = %v, want lo-step = 1.5", got)
	}
}
