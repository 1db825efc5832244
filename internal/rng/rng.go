// Package rng provides the deterministic pseudo-random value generators
// (PRVGs) that every nondeterministic workload in this repository draws from.
//
// The paper (§4.2, "Nondeterminism") restores PARSEC's pseudo random value
// generators to use random seeds "as it is done in a real scenario". This
// package reproduces that policy while keeping experiments replayable: a
// Source is seeded explicitly, and independent streams are derived by
// splitting, so a run is fully determined by its root seed while distinct
// invocations (and re-executions after a rollback) observe fresh randomness.
package rng

import "math"

// Source is a deterministic pseudo-random value generator. It combines a
// SplitMix64 seeder with a PCG-XSH-RR 64/32 core, which is small, fast, and
// has no measurable correlation between split streams for our purposes.
type Source struct {
	state uint64
	inc   uint64
	// spare holds a cached second Gaussian variate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that similar seeds yield unrelated streams.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources with different seeds
// produce unrelated streams; the same seed reproduces the same stream.
func New(seed uint64) *Source {
	s := seed
	r := &Source{}
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // stream selector must be odd
	r.Uint32()                 // advance past the (weak) initial state
	return r
}

// Split derives an independent child Source. The parent advances, so
// successive Split calls yield distinct children; the child's stream does
// not overlap the parent's continued output in any way that matters here.
func (r *Source) Split() *Source {
	c := &Source{}
	r.SplitInto(c)
	return c
}

// SplitInto derives an independent child stream into c, reusing its
// storage. It advances the parent exactly as Split does and produces a
// bit-identical child stream, so callers may recycle Source values across
// runs without perturbing replay determinism. Any cached Gaussian spare in
// c is discarded.
func (r *Source) SplitInto(c *Source) {
	s := r.Uint64()
	c.state = splitmix64(&s)
	c.inc = splitmix64(&s) | 1
	c.spare, c.spareOK = 0, false
	c.Uint32()
}

// Uint32 returns the next 32 uniformly distributed bits (PCG-XSH-RR).
func (r *Source) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method over 32 bits when possible.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			v := r.Uint32()
			m := uint64(v) * uint64(bound)
			if uint32(m) >= threshold {
				return int(m >> 32)
			}
		}
	}
	// Large n: fall back to 64-bit modulo rejection.
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniformly distributed float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with mean 0 and stddev 1,
// using the Box-Muller transform with caching of the second variate.
func (r *Source) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.spareOK = true
	return u * f
}

// Exp returns an exponentially distributed float64 with rate lambda.
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive lambda")
	}
	// 1-Float64() is in (0,1], so the log argument is never zero.
	return -math.Log(1-r.Float64()) / lambda
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}
