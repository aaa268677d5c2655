// Package rng implements the deterministic, splittable pseudo-random
// number generation used throughout the reproduction.
//
// Requirements driving a from-scratch implementation rather than math/rand:
//
//   - Splittable streams: each simulated thread needs its own statistically
//     independent stream derived deterministically from a single experiment
//     seed, so adversarial schedules are reproducible bit-for-bit.
//   - Stability: results recorded in EXPERIMENTS.md must not drift across
//     Go releases (math/rand's default source and shuffle changed over
//     time).
//
// The core generator is PCG-XSH-RR 64/32 pairs combined into a 64-bit
// output (two independent 32-bit outputs per draw would waste state, so we
// use the well-known PCG64-like construction of two XSH-RR 32-bit halves
// drawn from one 64-bit LCG step each). Seeding and stream-splitting use
// SplitMix64, the standard seeding recommendation for PCG and xoshiro.
package rng

import (
	"math"
	"math/bits"
)

const (
	splitmixGamma = 0x9E3779B97F4A7C15
	pcgMult       = 6364136223846793005
)

// SplitMix64 advances *state and returns the next SplitMix64 output.
// It is used for seeding and stream derivation.
func SplitMix64(state *uint64) uint64 {
	*state += splitmixGamma
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Rand is a deterministic PRNG instance. It is NOT safe for concurrent use;
// derive one per goroutine/thread with NewStream.
type Rand struct {
	state uint64
	inc   uint64 // stream selector; must be odd

	// Gaussian spare from the polar method.
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *Rand { return NewStream(seed, 0) }

// NewStream returns a generator for the given (seed, stream) pair. Distinct
// streams yield statistically independent sequences.
//
// The stream id is folded into the SplitMix64 seeding path (not merely
// XORed into the PCG increment) so that both the state and the increment
// of different streams differ by full avalanche. Deriving only the
// increment would leave the initial states identical, and PCG streams
// with equal state and near-equal increments emit strongly correlated
// first outputs — a bug the variance reproduction of the paper's
// Section 5 (experiment E2b) actually caught; see TestStreamsDecorrelated.
func NewStream(seed, stream uint64) *Rand {
	sm := seed + stream*splitmixGamma
	r := &Rand{inc: SplitMix64(&sm)<<1 | 1}
	r.state = SplitMix64(&sm)
	r.step()
	return r
}

func (r *Rand) step() uint64 {
	old := r.state
	r.state = old*pcgMult + r.inc
	return old
}

// Uint64 returns the next 64 uniformly random bits (two PCG-XSH-RR 32-bit
// outputs from consecutive LCG steps). It is written out, with the
// rotation as an intrinsic, so that it inlines, and Float64 and Bernoulli
// with it.
func (r *Rand) Uint64() uint64 {
	s0 := r.state
	s1 := s0*pcgMult + r.inc
	r.state = s1*pcgMult + r.inc
	return uint64(xshrr(s0))<<32 | uint64(xshrr(s1))
}

// xshrr is PCG's XSH-RR output permutation of the LCG state old: the
// xorshifted high bits, rotated right by the top five bits.
func xshrr(old uint64) uint32 {
	return bits.RotateLeft32(uint32(((old>>18)^old)>>27), -int(old>>59))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling is used to avoid modulo
// bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	c = t >> 32
	mid := t & mask
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. It compares k = u>>11 with
// p·2⁵³ rather than Float64() = k/2⁵³ with p: both sides are scaled by
// the same power of two, and both scalings are exact (k < 2⁵³ converts
// exactly; p·2⁵³ is exact or overflows to the infinity of p's sign), so
// no outcome moves, for any p, NaN and ±Inf included. The scaled form is
// short enough to inline, so a caller can use the outcome without a
// branch (data.SparsifyRows).
func (r *Rand) Bernoulli(p float64) bool { return float64(r.Uint64()>>11) < p*(1<<53) }

// Normal returns a standard normal sample via the Marsaglia polar method
// (no trig, stable tails, one spare cached).
func (r *Rand) Normal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	a, b := r.polar()
	r.spare, r.haveSpare = b, true
	return a
}

// NormalFill fills out with standard normal samples: the values, and the
// generator state left behind, are those of len(out) Normal calls. A
// pending spare is out[0]; after that the pairs go straight into out, and
// the second value of a pair that does not fit becomes the spare.
func (r *Rand) NormalFill(out []float64) {
	i := 0
	if r.haveSpare && len(out) > 0 {
		out[0], r.haveSpare = r.spare, false
		i = 1
	}
	for ; i < len(out); i += 2 {
		a, b := r.polar()
		out[i], r.spare = a, b
		if i+1 < len(out) {
			out[i+1] = b
		} else {
			r.haveSpare = true
		}
	}
}

// polar draws one pair of independent standard normals by the polar
// method. It is the one body of Normal and NormalFill.
func (r *Rand) polar() (float64, float64) {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		return u * f, v * f
	}
}

// Geometric returns a sample from the geometric distribution on {0,1,2,...}
// with success probability p (number of failures before the first success).
// It panics if p is outside (0, 1].
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U)/log(1-p)).
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return int(math.Log(u) / math.Log(1-p))
	}
}

// Perm returns a uniformly random permutation of [0, n) via Fisher–Yates.
func (r *Rand) Perm(n int) []int {
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

// NormalVector fills out with i.i.d. N(0, stddev²) samples.
func (r *Rand) NormalVector(out []float64, stddev float64) {
	r.NormalFill(out)
	for i := range out {
		out[i] *= stddev
	}
}
