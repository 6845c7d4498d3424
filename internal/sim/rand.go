package sim

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic PRNG (xoshiro256**, seeded via
// SplitMix64). Experiments create one Rand per logical stream (workload
// arrivals, flow sizes, ECMP tie-breaks, ...) so that changing one consumer
// does not perturb the others — a property math/rand's shared source lacks.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	// SplitMix64 seeding, as recommended by the xoshiro authors.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new generator whose stream is a deterministic function of
// this generator's state, advancing this generator once. It is used to hand
// independent streams to sub-components.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, debiased.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1). The outer conversion keeps
// the scaling product out of a caller's fused multiply-add on FMA
// architectures (DESIGN §3.9's determinism contract); so does each
// float64(x*y) in this file.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// ExpFloat64 returns an exponentially distributed value with mean 1, via
// inversion. Inversion is slower than ziggurat but branch-free determinism
// matters more here than speed.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal value using the Box-Muller polar
// method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
