// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// The experiments in the paper depend on randomization in several places:
// edge sampling for Erdős–Rényi graphs, uniform edge weights, the random
// in-window offset of the centralized k-priority push, victim selection for
// stealing and spying, and the shuffling of newly activated nodes in the
// phase simulator. All of these need independent, seedable streams so that
// experiment runs are reproducible. math/rand/v2 would work, but a local
// implementation keeps the repository self-contained, allocation-free and
// lets every place own an unshared generator (no locking, no false sharing).
package xrand

import "math/bits"

// SplitMix64 is the seed-expansion generator recommended by Vigna for
// initializing xoshiro state. It is also a perfectly usable generator on
// its own for non-adversarial workloads.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ generator. It is not safe for concurrent use;
// callers own one generator per goroutine/place.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended
// by the xoshiro authors. Any seed value, including zero, is valid.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro256++ requires a non-zero state; SplitMix64 cannot emit four
	// consecutive zeros, so this is unreachable, but cheap to guard.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Uint64 returns the next 64-bit value in the stream.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s0+s3, 23) + s0

	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)

	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
// Uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1]. The paper assigns edge
// weights uniformly in ]0, 1]; a weight of exactly zero would let paths of
// unbounded length have zero cost, which both the theory (Lemma 1) and
// Dijkstra's termination argument exclude.
func (r *Rand) Float64Open() float64 {
	return 1.0 - r.Float64()
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Shuffle pseudo-randomly permutes elements [0,n) using swap, Fisher–Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Split returns a new generator whose stream is independent of r's
// subsequent output. It is used to derive per-place and per-graph streams
// from a single experiment seed.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}
