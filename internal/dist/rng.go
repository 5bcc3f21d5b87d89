// Package dist provides the deterministic random samplers that back the
// synthetic YouTube trace generator, the discrete-event simulator and the
// emulator's latency model. Every sampler is seeded explicitly so experiments
// are reproducible bit-for-bit.
package dist

import (
	"math/rand"
)

// RNG is a seeded source of randomness shared by samplers. It wraps
// math/rand.Rand so that every component of an experiment draws from a
// single, explicitly seeded stream.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential sample with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto is Perm into caller storage: it fills buf[:n] (reallocating only
// when buf is too small) by replaying math/rand.Perm's loop draw for draw,
// so the permutation and the RNG state afterwards are Perm's own. buf's
// previous contents do not matter: a stale slot is only ever copied onto
// itself, and overwritten by the next statement.
func (g *RNG) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		j := g.r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed, stateless
// 64-bit mixer. It backs PairUniform and the control plane's HRW ring.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// PairUniform returns the uniform [0, 1) draw that the latency models of
// both substrates (simnet.Network and emu.Conditions) assign to the
// unordered node pair {a, b} under seed: a stateless chained mix of
// (seed, min, max), so the value is stable without an O(N²) matrix and
// costs no allocation. Negative ids (the server/tracker, -1) are valid.
func PairUniform(seed, a, b int64) float64 {
	if a > b {
		a, b = b, a
	}
	x := Mix64(Mix64(Mix64(uint64(seed))+uint64(a)) + uint64(b))
	return float64(x>>11) / (1 << 53)
}
