package workload

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// ParticleField describes how computational particles are loaded over a
// 3-D Cartesian domain decomposition. iPIC3D's GEM magnetic-reconnection
// setup concentrates plasma in a Harris current sheet across the middle of
// the domain, which is what makes the per-process particle counts skewed
// (paper Section IV-D).
type ParticleField struct {
	// Dims are the process-grid dimensions.
	Dims [3]int
	// PerProcMean is the average number of particles per process.
	PerProcMean int64
	// SheetWidth is the Harris sheet half-width as a fraction of the Y
	// extent (density ~ sech^2((y-y0)/w)).
	SheetWidth float64
	// Background is the uniform background density fraction (0..1).
	Background float64
	// Seed drives deterministic per-process jitter.
	Seed int64
}

// DefaultGEM returns a GEM-challenge-shaped loading for the given process
// grid and mean load.
func DefaultGEM(dims [3]int, perProcMean int64, seed int64) ParticleField {
	return ParticleField{
		Dims:        dims,
		PerProcMean: perProcMean,
		SheetWidth:  0.22,
		Background:  0.35,
		Seed:        seed,
	}
}

// density evaluates the unnormalized Harris-sheet density at fractional
// position y in [0,1).
func (f ParticleField) density(y float64) float64 {
	s := 1 / math.Cosh((y-0.5)/f.SheetWidth)
	return f.Background + (1-f.Background)*s*s
}

// Count reports the deterministic particle count of the process at
// coordinates (x, y, z) on the process grid: the Harris profile across Y
// plus a few percent of per-process jitter.
func (f ParticleField) Count(coords [3]int) int64 {
	ny := f.Dims[1]
	y := (float64(coords[1]) + 0.5) / float64(ny)
	// Normalize so that the mean over all processes is PerProcMean.
	var sum float64
	for j := 0; j < ny; j++ {
		sum += f.density((float64(j) + 0.5) / float64(ny))
	}
	mean := sum / float64(ny)
	base := float64(f.PerProcMean) * f.density(y) / mean
	id := int64(coords[0]*f.Dims[1]*f.Dims[2] + coords[1]*f.Dims[2] + coords[2])
	rng := rand.New(sim.NewSplitMix(sim.Mix64(f.Seed, id)))
	jitter := 1 + 0.05*rng.NormFloat64()
	if jitter < 0.5 {
		jitter = 0.5
	}
	n := int64(base * jitter)
	if n < 1 {
		n = 1
	}
	return n
}

// ExitFraction reports the deterministic fraction of a process's particles
// that leave its subdomain per step, given a nominal CFL-like mobility.
// Processes in the high-gradient sheet region shed slightly more.
func (f ParticleField) ExitFraction(coords [3]int, mobility float64) float64 {
	y := (float64(coords[1]) + 0.5) / float64(f.Dims[1])
	grad := math.Abs(f.density(y+0.01) - f.density(y-0.01))
	frac := mobility * (1 + 5*grad)
	if frac > 0.5 {
		frac = 0.5
	}
	return frac
}

// Imbalance builds a vector of n per-process workload multipliers with the
// given coefficient of variation, for synthetic two-operation experiments.
func Imbalance(n int, cov float64, seed int64) []float64 {
	out := make([]float64, n)
	rng := rand.New(sim.NewSplitMix(seed))
	for i := range out {
		v := 1 + cov*rng.NormFloat64()
		if v < 0.1 {
			v = 0.1
		}
		out[i] = v
	}
	return out
}
