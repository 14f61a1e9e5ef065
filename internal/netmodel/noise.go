package netmodel

import (
	"math"

	"repro/internal/sim"
)

// Noise perturbs compute durations to model the system noise, OS
// interference and temperature-induced speed variance that the paper's
// decoupling strategy absorbs (Section I and II-B), as a production
// machine shows them: a lognormal static per-rank speed spread, Gaussian
// per-operation jitter proportional to the operation length, and
// Poisson-arriving OS detours (daemon wakeups) that steal fixed-length
// slices. The zero value perturbs nothing. Every draw is a deterministic
// function of its inputs: per-rank state derives from (seed, rank) and
// per-operation state from the caller's random stream.
type Noise struct {
	// SpeedSigma is the sigma of the lognormal per-rank speed factor.
	// 0 disables static heterogeneity. Typical: 0.02-0.08.
	SpeedSigma float64
	// JitterFrac is the standard deviation of per-operation Gaussian
	// jitter, as a fraction of the operation duration. Typical: 0.01-0.1.
	JitterFrac float64
	// DetourEvery is the mean interval between OS detours experienced by
	// a busy process. 0 disables detours.
	DetourEvery sim.Time
	// DetourLen is the length of one OS detour.
	DetourLen sim.Time
}

// DefaultNoise returns noise levels shaped like the paper's testbed
// observations: a few percent static spread plus occasional OS detours.
func DefaultNoise() Noise {
	return Noise{
		SpeedSigma:  0.04,
		JitterFrac:  0.03,
		DetourEvery: 10 * sim.Millisecond,
		DetourLen:   50 * sim.Microsecond,
	}
}

// SpeedFactor draws a deterministic lognormal factor for rank. The factor
// is normalized to be >= 1 so noise never makes a rank faster than the
// nominal cost model (slowdowns only, as with real interference).
func (c Noise) SpeedFactor(seed int64, rank int) float64 {
	if c.SpeedSigma <= 0 {
		return 1
	}
	f := math.Exp(sim.NewRand(sim.Mix64(seed, int64(rank))).NormFloat64() * c.SpeedSigma)
	if f < 1 {
		f = 1 / f
	}
	// Map the two-sided spread to a one-sided slowdown around 1.
	return 1 + (f-1)/2
}

// Jitter returns the extra time Gaussian jitter and Poisson OS detours add
// to one compute operation of nominal duration d.
func (c Noise) Jitter(rng *sim.Rand, d sim.Time) sim.Time {
	if d <= 0 {
		return 0
	}
	var extra sim.Time
	if c.JitterFrac > 0 {
		j := sim.Time(rng.NormFloat64() * c.JitterFrac * float64(d))
		if j > 0 { // interference only ever slows an operation down
			extra += j
		}
	}
	if c.DetourEvery > 0 && c.DetourLen > 0 {
		n := rng.Poisson(float64(d) / float64(c.DetourEvery))
		extra += sim.Time(n) * c.DetourLen
	}
	return extra
}
