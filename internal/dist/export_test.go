package dist

// WeightedChoice is the two-pass linear scan Cumulative.Choice replaced,
// kept as the reference its equivalence test draws against: it selects an
// index with probability proportional to its weight and returns -1 when
// weights is empty or sums to zero.
func WeightedChoice(g *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return -1
	}
	u := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
