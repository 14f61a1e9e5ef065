package experiments

import (
	"fmt"

	"repro/internal/apps/ipic3d"
	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The recovery experiment sweeps checkpoint interval against crash-stop
// intensity for the three Fig. 8 particle-I/O implementations running
// the checkpoint/restart bodies (ipic3d.RunRecovery). The campaign is
// the crash-only projection of Options.FaultSpec: every non-crash family
// is zeroed, and a spec that schedules no crashes gets two so the sweep
// is never vacuous. Crash instants are scattered over the variant's own
// clean makespan at that checkpoint interval, so every configuration
// faces the same per-unit-time hazard.
//
// Per variant it reports:
//
//   - one "effective-makespan" row per checkpoint interval k (Param = k)
//     carrying the crashed makespan in seconds — the Young/Daly trade
//     appears as a minimum over k: tight intervals pay checkpoint cost,
//     loose ones replay more lost work;
//   - one "wasted-frac" row per k carrying the replayed fraction of all
//     mover compute;
//   - one "recovery-overhead" row per k carrying crashed-minus-clean
//     makespan in seconds — absolute, not a ratio, so the decoupled
//     variant's smaller clean makespan does not distort the comparison;
//   - one "crash-inflation" row per non-zero intensity (Param = x) at
//     the middle interval, crashed over clean makespan;
//   - one "recovery-overhead-best" summary row: the overhead at the
//     variant's best interval. Decoupling should undercut both
//     references — its checkpoints ship increments to the I/O group off
//     the critical path, while the references re-write full state
//     synchronously on every segment, replayed ones included.
type recoveryOutcome struct {
	cleanT  map[int]sim.Time    // interval -> clean makespan
	clean   map[int]float64     // interval -> clean makespan, seconds
	crashed map[int]float64     // interval -> crashed makespan, seconds
	wasted  map[int]float64     // interval -> wasted-work fraction
	byX     map[float64]float64 // intensity -> crashed makespan at recoveryMidK
}

// recoveryProcs is the sweep's fixed world size: large enough that the
// decoupled I/O group has four members, small enough for CI.
const recoveryProcs = 64

// recoverySteps lengthens the run so every checkpoint interval divides
// into several segments.
const recoverySteps = 24

// recoveryParticleBytes is the checkpoint record size. A checkpoint
// carries the full phase-space state plus pusher auxiliaries, so it is
// wider than the 64-byte save record of the Fig. 8 output path; the
// larger record also puts the references' synchronous full-state writes
// at a realistic fraction of the makespan.
const recoveryParticleBytes = 256

// recoveryIntervals are the checkpoint intervals (mover steps between
// commits) swept per variant.
var recoveryIntervals = []int{3, 6, 12}

// recoveryMidK is the interval held fixed while intensity sweeps.
const recoveryMidK = 6

// recoveryIntensities are the campaign scale factors; 0 is the clean
// baseline the inflation rows divide by.
var recoveryIntensities = []float64{0, 1, 2}

// overhead is the absolute recovery cost at interval k in seconds.
func (o recoveryOutcome) overhead(k int) float64 {
	return o.crashed[k] - o.clean[k]
}

// bestOverhead is the overhead at the sweep's best interval.
func (o recoveryOutcome) bestOverhead() float64 {
	best := o.overhead(recoveryIntervals[0])
	for _, k := range recoveryIntervals[1:] {
		if d := o.overhead(k); d < best {
			best = d
		}
	}
	return best
}

// crashOnly projects a campaign spec onto its crash family, defaulting
// to two crashes when the spec schedules none.
func crashOnly(spec faults.Spec) faults.Spec {
	sp := spec
	sp.Bursts, sp.Outages, sp.DerateStripes, sp.Flaps = 0, 0, 0, 0
	if sp.Crashes == 0 {
		sp.Crashes = 2
	}
	return sp
}

// recoveryRun measures one variant at one seed: a clean and a crashed
// run per interval, plus the intensity sweep at the middle interval.
// Clean runs use Faults == nil — the exact crash-free code path — so
// the baseline stays byte-identical to a plain checkpointed run.
func recoveryRun(v ipic3d.IOVariant, spec faults.Spec, seed int64) (recoveryOutcome, error) {
	stripes := netmodel.LustreLike().Stripes
	base := crashOnly(spec)
	out := recoveryOutcome{
		cleanT:  make(map[int]sim.Time, len(recoveryIntervals)),
		clean:   make(map[int]float64, len(recoveryIntervals)),
		crashed: make(map[int]float64, len(recoveryIntervals)),
		wasted:  make(map[int]float64, len(recoveryIntervals)),
		byX:     make(map[float64]float64, len(recoveryIntensities)),
	}
	run := func(k int, x float64) (ipic3d.RecoveryResult, error) {
		c := ipic3d.DefaultConfig(recoveryProcs)
		c.Steps = recoverySteps
		c.ParticleBytes = recoveryParticleBytes
		c.Seed = seed
		if x > 0 {
			sp := base.Scale(x)
			sp.Horizon = out.cleanT[k]
			sp.Seed = sim.Mix64(spec.Seed, seed)
			inj, err := sp.Plan(c.Procs, stripes).Compile(c.Procs, stripes)
			if err != nil {
				return ipic3d.RecoveryResult{}, err
			}
			c.Faults = &inj
		}
		return ipic3d.RunRecovery(c, v, k)
	}
	for _, k := range recoveryIntervals {
		res, err := run(k, 0)
		if err != nil {
			return recoveryOutcome{}, err
		}
		out.cleanT[k] = res.Time
		out.clean[k] = res.Time.Seconds()
		res, err = run(k, 1)
		if err != nil {
			return recoveryOutcome{}, err
		}
		out.crashed[k] = res.Time.Seconds()
		out.wasted[k] = res.WastedFraction()
	}
	out.byX[0] = out.clean[recoveryMidK]
	out.byX[1] = out.crashed[recoveryMidK]
	for _, x := range recoveryIntensities {
		if x <= 1 {
			continue
		}
		res, err := run(recoveryMidK, x)
		if err != nil {
			return recoveryOutcome{}, err
		}
		out.byX[x] = res.Time.Seconds()
	}
	return out, nil
}

// Recovery regenerates the checkpoint/restart sweep: Fig. 8 variant x
// checkpoint interval x crash intensity, with effective-makespan,
// wasted-work, recovery-overhead and crash-inflation rows. Param
// carries the checkpoint interval on per-interval rows and the
// intensity on inflation rows (0 for the summary row).
func Recovery(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	spec, err := faults.ParseSpec(opts.FaultSpec)
	if err != nil {
		return nil, err
	}
	variants := []ipic3d.IOVariant{ipic3d.IOCollective, ipic3d.IOShared, ipic3d.IODecoupled}
	var points []point
	for _, v := range variants {
		out := newMemo(func(seed int64) (recoveryOutcome, error) {
			return recoveryRun(v, spec, seed)
		})
		row := func(series string, param float64) Row {
			return Row{Experiment: "recovery", Series: fmt.Sprintf("%s %s", v, series),
				Procs: recoveryProcs, Param: param}
		}
		for _, k := range recoveryIntervals {
			points = append(points,
				point{row: row("effective-makespan", float64(k)), fn: read(out, func(o recoveryOutcome) float64 { return o.crashed[k] })},
				point{row: row("wasted-frac", float64(k)), fn: read(out, func(o recoveryOutcome) float64 { return o.wasted[k] })},
				point{row: row("recovery-overhead", float64(k)), fn: read(out, func(o recoveryOutcome) float64 { return o.overhead(k) })})
		}
		for _, x := range recoveryIntensities[1:] {
			points = append(points, point{row: row("crash-inflation", x),
				fn: read(out, func(o recoveryOutcome) float64 { return slowdownRatio(o.byX[x], o.byX[0]) })})
		}
		points = append(points, point{row: row("recovery-overhead-best", 0), fn: read(out, recoveryOutcome.bestOverhead)})
	}
	return runPoints(opts, points)
}
