package sim

import (
	"math"
	"math/rand"
)

// Rand is a per-process random stream (Fiber.Rand) over splitmix64, which
// seeds in O(1) where the stdlib's default source fills a 607-word table
// per process. It yields exactly what rand.New(NewSplitMix(seed)) yields:
// uniforms straight from the source, with no interface call per draw, and
// normals from a math/rand generator reading the same source. That
// generator holds a pointer to the source inside the Rand, so a Rand is
// used through the pointer NewRand returns and never copied.
type Rand struct {
	src  splitMix
	norm rand.Rand // NormFloat64 over &src, in the same allocation
	// mean and limit memoize Poisson's last Knuth mean and exp(-mean):
	// a process's compute slices mostly repeat one length, so the
	// exponential is paid once per length, not once per draw.
	mean, limit float64
}

// NewRand returns the stream of a splitmix64 source seeded with seed;
// the engine seeds process id's stream with Mix64(engine seed, id).
func NewRand(seed int64) *Rand {
	r := &Rand{src: splitMix{state: uint64(seed)}}
	r.norm = *rand.New(&r.src)
	return r
}

// uniform draws from [0, 1) as rand.Rand.Float64 does from the same
// source: 63 bits scaled down, redrawn when rounding reaches 1.
func (r *Rand) uniform() float64 {
	for {
		if f := float64(int64(r.src.Uint64()>>1)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// NormFloat64 draws a standard normal variate.
func (r *Rand) NormFloat64() float64 { return r.norm.NormFloat64() }

// Poisson draws a Poisson(mean) variate: Knuth's product of uniforms for
// mean <= 32 and a rounded normal approximation above; 0 for mean <= 0.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 32 {
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	if mean != r.mean {
		r.mean, r.limit = mean, math.Exp(-mean)
	}
	p := 1.0
	n := -1
	for p > r.limit {
		p *= r.uniform()
		n++
	}
	return n
}

// NewSplitMix returns a splitmix64 rand.Source64 seeded with seed in
// O(1). It is the generator behind every deterministic stream in the
// tree: the engine's per-process streams (Rand) draw from it, and
// packages that derive streams outside the engine (noise models, workload
// generators) share it so no path pays the stdlib default source's
// 607-word seeding.
func NewSplitMix(seed int64) rand.Source64 {
	return &splitMix{state: uint64(seed)}
}

// splitMix is a splitmix64 rand.Source64.
type splitMix struct{ state uint64 }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Mix64 combines a seed and a stream id with a splitmix64 finalizer so
// that adjacent ids yield uncorrelated streams. It is the canonical
// stream-derivation mixer: the engine's per-process streams use it, and
// packages that derive streams outside the engine (noise models, workload
// generators, fault campaigns) must use it too, so that every stream in a
// run is a pure function of (seed, stream id).
func Mix64(seed, id int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
