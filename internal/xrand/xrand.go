// Package xrand provides a small, fully deterministic pseudo-random
// number generator used by every stochastic component in this
// repository.
//
// The generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014). It was
// chosen over math/rand because its output for a given seed is a pure
// function of the seed with no global state, it can be "split" into
// independent streams (one per simulation replication, one per mule),
// and it is trivially portable: the experiment harness relies on every
// platform producing bit-identical scenario layouts for a given seed.
package xrand

import "math"

// Source is a deterministic PRNG. The zero value is a valid generator
// seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new Source whose stream is statistically independent
// of the receiver's. Both generators remain usable. Splitting is how
// per-replication and per-entity streams are derived from a single
// experiment seed.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits, the standard 64-bit float construction.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; plain
	// modulo with rejection keeps the implementation obviously
	// correct. Rejection bounds the modulo bias to zero.
	limit := math.MaxUint64 - math.MaxUint64%uint64(n)
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % uint64(n))
		}
	}
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
