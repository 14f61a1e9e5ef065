package experiments

import (
	"fmt"
	"sync"

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

// slope is the least-squares slope of inflation over intensity across
// the whole sweep (the clean point contributes inflation 1 at x = 0).
func (o resilienceOutcome) slope() float64 {
	n := float64(len(resilienceIntensities))
	var sx, sy float64
	for _, x := range resilienceIntensities {
		sx += x
		sy += o.inflation(x)
	}
	xbar, ybar := sx/n, sy/n
	var num, den float64
	for _, x := range resilienceIntensities {
		num += (x - xbar) * (o.inflation(x) - ybar)
		den += (x - xbar) * (x - xbar)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// resilienceRun measures one variant under every intensity at one seed.
// Intensity 0 runs with Faults == nil — the exact fault-free code path —
// so the baseline is byte-identical to a plain Fig. 8 run.
func resilienceRun(v ipic3d.IOVariant, spec faults.Spec, seed int64) (resilienceOutcome, error) {
	stripes := netmodel.LustreLike().Stripes
	out := resilienceOutcome{
		makespan: make(map[float64]float64, len(resilienceIntensities)),
		tail:     make(map[float64]float64, len(resilienceIntensities)),
	}
	for _, x := range resilienceIntensities {
		c := ipic3d.DefaultConfig(resilienceProcs)
		c.Seed = seed
		if x > 0 {
			sp := spec.Scale(x)
			sp.Seed = sim.Mix64(spec.Seed, seed)
			inj, err := sp.Plan(c.Procs, stripes).Compile(c.Procs, stripes)
			if err != nil {
				return resilienceOutcome{}, err
			}
			c.Faults = &inj
		}
		res, err := ipic3d.RunIO(c, v)
		if err != nil {
			return resilienceOutcome{}, err
		}
		out.makespan[x] = res.Time.Seconds()
		out.tail[x] = res.IOTail.Seconds()
	}
	return out, nil
}

// resilienceMemo shares one resilienceRun per (variant, seed) between
// that variant's rows — the per-intensity ratios and the slope all read
// the same sweep. Same shape and safety argument as coschedMemo.
type resilienceMemo struct {
	compute func(seed int64) (resilienceOutcome, error)
	mu      sync.Mutex
	entries map[int64]*resilienceEntry
}

type resilienceEntry struct {
	once sync.Once
	out  resilienceOutcome
	err  error
}

func (m *resilienceMemo) get(seed int64) (resilienceOutcome, error) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[int64]*resilienceEntry)
	}
	e := m.entries[seed]
	if e == nil {
		e = &resilienceEntry{}
		m.entries[seed] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.out, e.err = m.compute(seed) })
	return e.out, e.err
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
		v := v
		memo := &resilienceMemo{compute: func(seed int64) (resilienceOutcome, error) {
			return resilienceRun(v, spec, seed)
		}}
		for _, x := range resilienceIntensities[1:] {
			x := x
			points = append(points, point{
				row: Row{Experiment: "resilience", Series: fmt.Sprintf("%s inflation", v),
					Procs: resilienceProcs, Param: x},
				fn: func(seed int64) (float64, error) {
					out, err := memo.get(seed)
					if err != nil {
						return 0, err
					}
					return out.inflation(x), nil
				},
			})
			points = append(points, point{
				row: Row{Experiment: "resilience", Series: fmt.Sprintf("%s io-tail-stretch", v),
					Procs: resilienceProcs, Param: x},
				fn: func(seed int64) (float64, error) {
					out, err := memo.get(seed)
					if err != nil {
						return 0, err
					}
					return out.tailStretch(x), nil
				},
			})
		}
		points = append(points, point{
			row: Row{Experiment: "resilience", Series: fmt.Sprintf("%s degradation-slope", v),
				Procs: resilienceProcs},
			fn: func(seed int64) (float64, error) {
				out, err := memo.get(seed)
				if err != nil {
					return 0, err
				}
				return out.slope(), nil
			},
		})
	}
	return runPoints(opts, points)
}
