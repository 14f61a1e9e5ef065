package experiments

import (
	"fmt"

	"repro/internal/apps/ipic3d"
	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The resilience experiment sweeps fault-campaign intensity against the
// three Fig. 8 particle-I/O implementations at a fixed scale. The base
// campaign (Options.FaultSpec, default faults.DefaultSpec) is scaled by
// each intensity — multiplying burst count, outage duration,
// degraded-stripe count and flap count while leaving per-event severity
// alone — compiled against the machine shape, and injected into an
// otherwise identical run. It reports, per variant:
//
//   - one "inflation" row per non-zero intensity whose Seconds column
//     carries makespan(intensity) / makespan(clean);
//   - one "io-tail-stretch" row per non-zero intensity carrying the same
//     ratio for the I/O tail (the file-system work left on the critical
//     path after the last mover finishes);
//   - one "degradation-slope" row carrying the least-squares slope of
//     inflation over intensity — the variant's marginal cost per unit of
//     campaign. Decoupling's slope should undercut both reference
//     variants: buffered, overlapped I/O absorbs stripe outages and link
//     flaps that the synchronous writers eat on the critical path.
//
// The campaign seed folds the run seed (sim.Mix64), so repetitions see
// different event placements while everything stays replayable.

// resilienceProcs is the sweep's fixed world size. Fixed (like the
// ablation process counts) so rows are comparable across option
// settings; the contended resource is the striped bank, not scale.
const resilienceProcs = 64

// cleanKey names one fault-free Fig. 8 run at the fault sweeps' scale.
type cleanKey struct {
	v    ipic3d.IOVariant
	seed int64
}

// clean is the fault-free Fig. 8 run at resilienceProcs ranks, simulated
// once per (variant, seed) however many sweeps divide by it: it is both
// resilience's intensity-0 baseline and lossy's rate-0 one. It runs with
// Faults == nil — the exact fault-free code path — so the baseline is
// byte-identical to a plain Fig. 8 run.
var clean = newMemo(func(k cleanKey) (ipic3d.Result, error) {
	c := ipic3d.DefaultConfig(resilienceProcs)
	c.Seed = k.seed
	return ipic3d.RunIO(c, k.v)
})

// fig8Faulted runs one Fig. 8 variant at resilienceProcs ranks under inj,
// or reads the clean run for a nil inj.
func fig8Faulted(v ipic3d.IOVariant, seed int64, inj *faults.Injection) (ipic3d.Result, error) {
	if inj == nil {
		return clean.get(cleanKey{v, seed})
	}
	c := ipic3d.DefaultConfig(resilienceProcs)
	c.Seed = seed
	c.Faults = inj
	return ipic3d.RunIO(c, v)
}

// resilienceIntensities are the campaign scale factors swept per
// variant. Intensity 0 is the clean baseline every ratio divides by.
var resilienceIntensities = []float64{0, 1, 2, 4}

// resilienceOutcome is one (variant, seed) sweep: makespan and I/O tail
// in seconds per intensity.
type resilienceOutcome struct {
	makespan map[float64]float64
	tail     map[float64]float64
}

// inflation is makespan(x) over the clean makespan.
func (o resilienceOutcome) inflation(x float64) float64 {
	return slowdownRatio(o.makespan[x], o.makespan[0])
}

// tailStretch is the I/O tail at x over the clean tail.
func (o resilienceOutcome) tailStretch(x float64) float64 {
	return slowdownRatio(o.tail[x], o.tail[0])
}

// resilienceRun measures one variant under every intensity at one seed.
// Intensity 0 is the clean run.
func resilienceRun(v ipic3d.IOVariant, spec faults.Spec, seed int64) (resilienceOutcome, error) {
	stripes := netmodel.LustreLike().Stripes
	out := resilienceOutcome{
		makespan: make(map[float64]float64, len(resilienceIntensities)),
		tail:     make(map[float64]float64, len(resilienceIntensities)),
	}
	for _, x := range resilienceIntensities {
		var inj *faults.Injection
		if x > 0 {
			sp := spec.Scale(x)
			sp.Seed = sim.Mix64(spec.Seed, seed)
			compiled, err := sp.Plan(resilienceProcs, stripes).Compile(resilienceProcs, stripes)
			if err != nil {
				return resilienceOutcome{}, err
			}
			inj = &compiled
		}
		res, err := fig8Faulted(v, seed, inj)
		if err != nil {
			return resilienceOutcome{}, err
		}
		out.makespan[x] = res.Time.Seconds()
		out.tail[x] = res.IOTail.Seconds()
	}
	return out, nil
}

// Resilience regenerates the fault-campaign intensity sweep: Fig. 8
// variant x campaign intensity, with makespan-inflation, I/O-tail and
// degradation-slope rows. Param carries the intensity (0 for the slope
// row, which summarizes the whole sweep).
func Resilience(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	spec, err := faults.ParseSpec(opts.FaultSpec)
	if err != nil {
		return nil, err
	}
	variants := []ipic3d.IOVariant{ipic3d.IOCollective, ipic3d.IOShared, ipic3d.IODecoupled}
	var points []point
	for _, v := range variants {
		out := newMemo(func(seed int64) (resilienceOutcome, error) {
			return resilienceRun(v, spec, seed)
		})
		row := func(series string, x float64) Row {
			return Row{Experiment: "resilience", Series: fmt.Sprintf("%s %s", v, series),
				Procs: resilienceProcs, Param: x}
		}
		for _, x := range resilienceIntensities[1:] {
			points = append(points,
				point{row: row("inflation", x), fn: read(out, func(o resilienceOutcome) float64 { return o.inflation(x) })},
				point{row: row("io-tail-stretch", x), fn: read(out, func(o resilienceOutcome) float64 { return o.tailStretch(x) })})
		}
		// The clean point contributes inflation 1 at intensity 0.
		points = append(points, point{row: row("degradation-slope", 0),
			fn: read(out, func(o resilienceOutcome) float64 { return slope(resilienceIntensities, o.inflation) })})
	}
	return runPoints(opts, points)
}
