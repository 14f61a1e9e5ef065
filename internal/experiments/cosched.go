package experiments

import (
	"fmt"

	"repro/internal/apps/ipic3d"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The cosched experiment co-schedules several decoupled iPIC3D particle-
// I/O jobs (Fig. 8's Decoupling variant) on one engine, all contending
// for a shared striped-FS bank, and sweeps jobs x stripes x inter-job
// policy. It reports, per configuration:
//
//   - one row per job whose Seconds column carries the job's slowdown —
//     its co-scheduled completion time over its time alone on the same
//     bank (1.0 = unaffected by the neighbors);
//   - one "fairness" row whose Seconds column carries Jain's fairness
//     index over those slowdowns (1.0 = perfectly even suffering);
//   - one "hog-tail" row whose Seconds column carries how long the hog
//     runs on after the last light job has finished — the long tail a
//     static share sentences a sustained hog to, and the number the
//     work-conserving policies exist to shrink.
//
// Job 0 ("hog") writes its full particle population every step; the
// other jobs are ordinary down-sampled writers. Under FCFS the hog's
// booked backlog delays everyone; fair share caps each job's stripe
// fraction; the fair-wc variant keeps those shares while contenders
// demand but redistributes idle entitlement, so the hog's tail runs at
// the full bank rate once the lights drain.

// coschedPerJobProcs is each job's world size. Fixed (like the ablation
// process counts) so rows are comparable across option settings.
const coschedPerJobProcs = 16

// coschedJobConfig builds job i's application config for one run seed.
// The jobs are deliberately heterogeneous: job 0 is an I/O hog (full
// save, no down-sampling), the rest save a quarter of their particles.
// Every job flushes each step and computes fast, so the bank — not the
// mover — is the contended resource.
func coschedJobConfig(i int, seed int64) ipic3d.Config {
	c := ipic3d.DefaultConfig(coschedPerJobProcs)
	c.Seed = seed*101 + int64(i)
	c.MoveRate = 4e6
	c.BufferSteps = 1
	if i == 0 {
		c.SaveFraction = 1.0
	} else {
		c.SaveFraction = 0.25
	}
	return c
}

// coschedJobName labels job i in row series.
func coschedJobName(i int) string {
	if i == 0 {
		return "hog"
	}
	return fmt.Sprintf("j%d", i)
}

// coschedJob wraps job i as a cluster job.
func coschedJob(i int, seed int64) cluster.Job {
	c := coschedJobConfig(i, seed)
	return cluster.Job{
		Name: coschedJobName(i),
		Start: func(base mpi.Config) (*mpi.World, error) {
			j, err := ipic3d.StartIO(c, ipic3d.IODecoupled, base)
			if err != nil {
				return nil, err
			}
			return j.World(), nil
		},
	}
}

// coschedBaseKey names one single-job (idle-bank) baseline. The baseline
// is policy- and job-count-independent — a single-job bank never paces,
// whatever the policy — so every configuration of the sweep shares one
// computation per key instead of re-running it per policy and per job
// count.
type coschedBaseKey struct {
	job, stripes int
	seed         int64
}

// coschedOutcome is one shared run's derived metrics: per-job slowdowns
// and the hog's tail past the last light job.
type coschedOutcome struct {
	slowdowns []float64
	hogTail   float64
}

// slowdownRatio is shared/alone guarded against a degenerate zero
// baseline: a job whose solo run takes zero time is reported as
// slowdown 1 when co-scheduling also leaves it at zero (unaffected),
// and as the co-scheduled seconds themselves otherwise — finite either
// way, so a degenerate configuration cannot write ±Inf into the CSV.
func slowdownRatio(shared, alone float64) float64 {
	if alone == 0 {
		if shared == 0 {
			return 1
		}
		return shared
	}
	return shared / alone
}

// coschedRun runs the shared cluster under each of policies — one
// simulation per distinct outcome (cluster.RunPolicies) — divides each job's completion time by
// its memoized single-job baseline on an identical bank, and measures
// the hog's tail (how long job 0 outlives the last light job, >= 0).
// A non-nil fault spec degrades the shared bank's stripes — the
// campaign's stripe events compiled per seed — while the baselines stay
// clean, so the slowdown rows then read "co-scheduling plus faults over
// an idle healthy bank". The outcomes come back in policy order.
func coschedRun(jobs, stripes int, policies []sim.BankPolicy, seed int64, base *memo[coschedBaseKey, float64], spec *faults.Spec) ([]coschedOutcome, error) {
	cjobs := make([]cluster.Job, jobs)
	for i := range cjobs {
		cjobs[i] = coschedJob(i, seed)
	}
	var sf [][]sim.StripeFault
	if spec != nil {
		sp := *spec
		sp.Seed = sim.Mix64(spec.Seed, seed)
		inj, err := sp.Plan(0, stripes).Compile(0, stripes)
		if err != nil {
			return nil, err
		}
		sf = inj.Stripe
	}
	shared, err := cluster.RunPolicies(cluster.Config{Jobs: cjobs, Stripes: stripes, Seed: seed, StripeFaults: sf}, policies)
	if err != nil {
		return nil, err
	}
	alone := make([]float64, jobs)
	for i := range alone {
		if alone[i], err = base.get(coschedBaseKey{i, stripes, seed}); err != nil {
			return nil, err
		}
	}
	outs := make([]coschedOutcome, len(shared))
	for pi, res := range shared {
		out := coschedOutcome{slowdowns: make([]float64, jobs)}
		for i := range out.slowdowns {
			out.slowdowns[i] = slowdownRatio(res.JobTimes[i].Seconds(), alone[i])
		}
		var lastLight sim.Time
		for _, t := range res.JobTimes[1:] {
			lastLight = max(lastLight, t)
		}
		if tail := res.JobTimes[0] - lastLight; tail > 0 {
			out.hogTail = tail.Seconds()
		}
		outs[pi] = out
	}
	return outs, nil
}

// jain is Jain's fairness index over xs: (sum x)^2 / (n * sum x^2),
// 1/n..1, where 1 means perfectly even values. The degenerate inputs —
// an empty slice or all-zero values, where the formula reads 0/0 — are
// defined as 1 (the all-equal limit), so they cannot write NaN into the
// CSV.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Cosched regenerates the multi-job co-scheduling sweep: jobs x stripes x
// inter-job bank policy, with per-job slowdown and fairness rows. Procs
// carries the total process count across jobs; Param carries the bank
// width.
func Cosched(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	policies := []sim.BankPolicy{sim.BankFCFS, sim.BankFair, sim.BankFairWC}
	var fspec *faults.Spec
	if opts.FaultSpec != "" {
		sp, err := faults.ParseSpec(opts.FaultSpec)
		if err != nil {
			return nil, err
		}
		// "none" parses to the zero spec; leaving fspec nil keeps the
		// sweep on the exact fault-free code path.
		if sp != (faults.Spec{}) {
			fspec = &sp
		}
	}
	base := newMemo(func(k coschedBaseKey) (float64, error) {
		alone, err := cluster.Run(cluster.Config{
			Jobs:    []cluster.Job{coschedJob(k.job, k.seed)},
			Stripes: k.stripes,
			Seed:    k.seed,
		})
		if err != nil {
			return 0, err
		}
		return alone.JobTimes[0].Seconds(), nil
	})
	var points []point
	for _, jc := range []int{2, 3} {
		for _, stripes := range []int{1, 4} {
			// One memo per (jobs, stripes, seed) holds the outcome of every
			// policy; each policy's rows read their own.
			out := newMemo(func(seed int64) ([]coschedOutcome, error) {
				return coschedRun(jc, stripes, policies, seed, base, fspec)
			})
			for pi, pol := range policies {
				row := func(series string) Row {
					return Row{Experiment: "cosched", Series: fmt.Sprintf("%s jobs=%d %s", pol, jc, series),
						Procs: jc * coschedPerJobProcs, Param: float64(stripes)}
				}
				for j := 0; j < jc; j++ {
					points = append(points, point{row: row(coschedJobName(j) + " slowdown"),
						fn: read(out, func(o []coschedOutcome) float64 { return o[pi].slowdowns[j] })})
				}
				points = append(points,
					point{row: row("fairness"), fn: read(out, func(o []coschedOutcome) float64 { return jain(o[pi].slowdowns) })},
					point{row: row("hog-tail"), fn: read(out, func(o []coschedOutcome) float64 { return o[pi].hogTail })})
			}
		}
	}
	return runPoints(opts, points)
}
