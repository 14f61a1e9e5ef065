package sim

import (
	"math"
	"math/rand"
	"testing"
)

// oldPoisson is the Poisson draw as the noise model made it over a
// math/rand generator, before Rand drew uniforms itself and memoized the
// exponential: the reference Rand.Poisson must reproduce bit for bit.
func oldPoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 32 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	p := 1.0
	n := -1
	for p > limit {
		p *= rng.Float64()
		n++
	}
	return n
}

// seedBeforeOne returns the splitmix64 seed whose first output is all
// ones, the one draw whose 63-bit uniform rounds to exactly 1 and must be
// drawn again. It inverts the output finalizer step by step.
func seedBeforeOne() int64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := uint(0); i < 64/k+1; i++ {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := unshift(^uint64(0), 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return int64(unshift(z, 30) - 0x9e3779b97f4a7c15)
}

// TestRandMatchesMathRand holds Rand to the stream it replaced: uniform,
// NormFloat64 and Poisson calls, interleaved at random over 10^5 calls per
// seed, return what a math/rand generator on the same splitmix64 source
// returned, and both sources end in the same state. The means repeat,
// change, fall at or below zero and rise above 32, so Poisson's memo is
// both hit and refreshed; one seed's first uniform rounds to 1 and must
// be redrawn.
func TestRandMatchesMathRand(t *testing.T) {
	if NewSplitMix(seedBeforeOne()).Uint64() != ^uint64(0) {
		t.Fatal("seedBeforeOne does not invert splitmix64")
	}
	means := []float64{-1, 0, 1.0 / 512, 1, 1.5, 2, 3.99, 17, 24, 31.9, 32, 32.5, 40, 200}
	for _, seed := range []int64{seedBeforeOne(), Mix64(1, 0), Mix64(42, 7), -3} {
		src := NewSplitMix(seed)
		old := rand.New(src)
		r := NewRand(seed)
		pick := rand.New(NewSplitMix(Mix64(seed, 99)))
		mean := 2.0
		if got, want := r.Poisson(mean), oldPoisson(old, mean); got != want {
			t.Fatalf("seed %d: first Poisson(%v) = %d, want %d", seed, mean, got, want)
		}
		for i := 0; i < 100000; i++ {
			switch op := pick.Intn(4); op {
			case 0:
				if got, want := r.uniform(), old.Float64(); got != want {
					t.Fatalf("seed %d call %d: uniform = %v, want %v", seed, i, got, want)
				}
			case 1:
				if got, want := r.NormFloat64(), old.NormFloat64(); got != want {
					t.Fatalf("seed %d call %d: NormFloat64 = %v, want %v", seed, i, got, want)
				}
			default:
				if pick.Intn(4) == 0 { // mostly repeat, as a rank's slices do
					mean = means[pick.Intn(len(means))]
					if pick.Intn(2) == 0 {
						mean += pick.Float64()
					}
				}
				if got, want := r.Poisson(mean), oldPoisson(old, mean); got != want {
					t.Fatalf("seed %d call %d: Poisson(%v) = %d, want %d", seed, i, mean, got, want)
				}
			}
		}
		if end := src.(*splitMix).state; r.src.state != end {
			t.Fatalf("seed %d: source ends in state %#x, want %#x", seed, r.src.state, end)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRand(11)
	for _, lambda := range []float64{0.5, 4, 40, 200} {
		n := 3000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if mean < lambda*0.9 || mean > lambda*1.1 {
			t.Fatalf("Poisson(%v) sample mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}
