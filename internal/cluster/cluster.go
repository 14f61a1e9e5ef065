// Package cluster co-schedules several independent jobs — each an
// mpi.World running a decoupled compute+I/O application — on one
// simulation engine, contending for a shared striped-file-system bank.
//
// The paper's decoupling strategy isolates compute and I/O groups inside
// one job; its end state (burst-buffer-style data staging at exascale) is
// only stressed when several jobs' decoupled groups contend for the same
// storage stripes. A Cluster models exactly that regime: every job keeps
// its private network, matching state and files, while stripe time is
// arbitrated between jobs by a pluggable inter-job policy (FCFS,
// fair-share and its work-conserving demand-signalled variant fair-wc —
// sim.BankPolicy) layered over the per-stripe least-loaded placement
// each job already used alone. Worlds attached to the shared bank
// bracket every file operation with the bank's demand hooks, so the
// work-conserving policy re-splits idle jobs' entitlement over the jobs
// that currently have queued writes.
//
// # Determinism
//
// A cluster run is one simulation: every world's events schedule through
// the shared engine's (t, seq) order, so the trajectory — and therefore
// every per-job time — is a pure function of (sim.TrajectoryVersion, the
// cluster seed, the ordered job list with each job's configuration, and
// the bank policy). Job spawn order fixes global process identifiers;
// representation (goroutine or fiber rank bodies) does not change the
// trajectory, exactly as for single-world runs.
//
// A cluster always runs on one engine. Its worlds are small (16 ranks in
// the cosched sweep), so a sharded run's windows hold too few events to
// pay for their barriers, and a sweep fills the host's cores with
// concurrent sweep points instead (DESIGN.md, "Co-scheduling runs on one
// engine").
//
// # One run for several policies
//
// RunPolicies returns the Results of one configuration under a list of
// bank policies, and Run is its FCFS case. A policy reaches a run
// only through the slots the bank grants: no world reads it, and the
// IOBegin/IOEnd demand signals are the same under every policy. So the
// run under the first policy carries a shadow bank for each of the others
// (sim.Bank.Shadow), fed the same calls; a shadow that granted every
// reservation with the real bank's (start, end) proves, by induction over
// the grants, that a run under its policy would have made the same calls
// and ended with the same Result, and takes a copy of it. The policies
// whose shadows dropped run next, in list order, shadowing each other.
// Only the policy may differ: a different bank width changes what the
// worlds ask for (collective writes read FS.Stripes), so widths are never
// certified this way.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Job is one co-scheduled job.
type Job struct {
	// Name labels the job's ranks in deadlock reports ("name/rank3").
	// Empty means "job<i>".
	Name string
	// Start builds the job's world from base — which carries the shared
	// Engine, Bank, Job index, Name and cluster-wide FS cost model — and
	// spawns its rank bodies without running the engine (World.Start /
	// World.StartFibers, or an app-level starter such as ipic3d.StartIO).
	// It returns the started world, whose Makespan becomes the job's
	// completion time. Run releases the world (mpi.World.Release) once it
	// has read that, so nothing may touch it after Run returns.
	// RunPolicies calls Start once per simulation it makes.
	Start func(base mpi.Config) (*mpi.World, error)
}

// Config describes one co-scheduled run.
type Config struct {
	// Jobs are started in order; order is part of the trajectory.
	Jobs []Job
	// Stripes overrides the bank width of the shared file-system cost
	// model (netmodel.LustreLike) when positive.
	Stripes int
	// Seed seeds the shared engine (per-process random streams). Each
	// job's application seed travels in its own configuration.
	Seed int64
	// StripeFaults schedules degradation windows on the shared bank's
	// stripes: StripeFaults[i] holds stripe i's outage/derate windows
	// (sim.ValidateStripeFaults). The bank is built per run, so faults
	// are installed fresh each Run; nil schedules nothing and keeps
	// trajectories byte-identical to the fault-free build. Invalid
	// windows, and windows on a stripe beyond the bank, are refused.
	StripeFaults [][]sim.StripeFault
}

// Result is one co-scheduled run's outcome.
type Result struct {
	// Makespan is the completion time of the whole cluster (the engine's
	// final virtual time).
	Makespan sim.Time
	// JobTimes is each job's own completion time (the latest finish of
	// its rank bodies), in job order.
	JobTimes []sim.Time
	// JobBusy is each job's total reserved stripe time, in job order.
	JobBusy []sim.Time
	// JobDemand is each job's cumulative I/O-active time — virtual time
	// during which at least one of its ranks was inside a file operation
	// (the bank's IOBegin/IOEnd demand signal) — in job order. It is the
	// denominator that makes stripe-time numbers comparable: a job with
	// high demand and low busy time was starved, one with busy close to
	// demand was served at full rate.
	JobDemand []sim.Time
	// BankBusy is the total reserved stripe time across all jobs.
	BankBusy sim.Time
}

// enginePool recycles engines across cluster runs, so co-scheduling
// sweeps reuse event-queue and ring capacity the way single-world sweeps
// reuse pooled worlds. A reset engine is behaviourally identical to a
// fresh one.
var enginePool sync.Pool

func getEngine(seed int64) *sim.Engine {
	if v := enginePool.Get(); v != nil {
		e := v.(*sim.Engine)
		e.Reset(seed)
		return e
	}
	return sim.NewEngine(seed)
}

// Run starts every job on one shared engine and an FCFS bank and runs the
// simulation to completion. Engines and the jobs' worlds are recycled
// across Run calls (a clean run releases its worlds). It is RunPolicies
// with the one policy sim.BankFCFS.
func Run(cfg Config) (Result, error) {
	res, err := RunPolicies(cfg, []sim.BankPolicy{sim.BankFCFS})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunPolicies runs cfg under each of policies in turn and returns one
// Result per policy in list order. It
// simulates each distinct run once: the first policy without a result
// runs with a shadow bank (sim.Bank.Shadow) for every later policy
// without one, and each shadow that granted every reservation exactly as
// the real bank did receives a copy of that run's Result. The others go
// on to the next run. The results equal separate Run calls, one per
// policy; the first error ends the list.
func RunPolicies(cfg Config, policies []sim.BankPolicy) ([]Result, error) {
	fs, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(policies))
	done := make([]bool, len(policies))
	for i, p := range policies {
		if done[i] {
			continue
		}
		var rest []int
		var others []sim.BankPolicy
		for k := i + 1; k < len(policies); k++ {
			if !done[k] {
				rest = append(rest, k)
				others = append(others, policies[k])
			}
		}
		res, same, err := run(cfg, fs, p, others)
		if err != nil {
			return nil, err
		}
		out[i] = res
		for j, k := range rest {
			if same[j] {
				out[k] = res.clone()
				done[k] = true
			}
		}
	}
	return out, nil
}

// clone copies r with slices of its own.
func (r Result) clone() Result {
	r.JobTimes = append([]sim.Time(nil), r.JobTimes...)
	r.JobBusy = append([]sim.Time(nil), r.JobBusy...)
	r.JobDemand = append([]sim.Time(nil), r.JobDemand...)
	return r
}

// validate checks cfg before any world starts and returns the file-system
// model the run uses.
func (cfg Config) validate() (netmodel.FSParams, error) {
	if len(cfg.Jobs) == 0 {
		return netmodel.FSParams{}, fmt.Errorf("cluster: no jobs")
	}
	fs := netmodel.LustreLike()
	if cfg.Stripes > 0 {
		fs.Stripes = cfg.Stripes
	}
	for i, sf := range cfg.StripeFaults {
		if len(sf) == 0 {
			continue
		}
		if i >= fs.Stripes {
			return netmodel.FSParams{}, fmt.Errorf("cluster: stripe faults on stripe %d of a %d-stripe bank", i, fs.Stripes)
		}
		if err := sim.ValidateStripeFaults(sf); err != nil {
			return netmodel.FSParams{}, fmt.Errorf("cluster: stripe %d: %w", i, err)
		}
	}
	return fs, nil
}

// jobName is job i's Name, or "job<i>" when it has none.
func jobName(job Job, i int) string {
	if job.Name == "" {
		return fmt.Sprintf("job%d", i)
	}
	return job.Name
}

// run is one simulation of cfg under policy, with a shadow bank under
// each of others; same[j] reports whether others[j]'s shadow reproduced
// the run.
func run(cfg Config, fs netmodel.FSParams, policy sim.BankPolicy, others []sim.BankPolicy) (res Result, same []bool, err error) {
	n := len(cfg.Jobs)
	eng := getEngine(cfg.Seed)
	bank := sim.NewBank(fs.Stripes, n, policy)
	shadows := make([]*sim.Bank, len(others))
	for j, p := range others {
		shadows[j] = bank.Shadow(p)
	}
	for i, sf := range cfg.StripeFaults {
		if len(sf) > 0 {
			bank.SetStripeFaults(i, sf)
		}
	}
	// A job's processes start their body goroutines only once the engine
	// runs, so a start that fails leaves nothing to unwind: the engine goes
	// back to the pool (getEngine resets it).
	worlds := make([]*mpi.World, n)
	for i, job := range cfg.Jobs {
		name := jobName(job, i)
		w, err := job.Start(mpi.Config{Engine: eng, Bank: bank, Job: i, Name: name, FS: fs})
		if err != nil {
			enginePool.Put(eng)
			return Result{}, nil, fmt.Errorf("cluster: job %d (%s): %w", i, name, err)
		}
		worlds[i] = w
	}
	makespan, err := eng.Run()
	if err != nil {
		// Run unwinds parked goroutines before returning a deadlock
		// error; a reset engine is behaviourally identical to a fresh one,
		// so the error path repools it and keeps its warmed capacity.
		enginePool.Put(eng)
		return Result{}, nil, err
	}
	res = Result{
		Makespan:  makespan,
		JobTimes:  make([]sim.Time, n),
		JobBusy:   make([]sim.Time, n),
		JobDemand: make([]sim.Time, n),
		BankBusy:  bank.Busy(),
	}
	for i, w := range worlds {
		res.JobTimes[i] = w.Makespan()
		res.JobBusy[i] = bank.JobBusy(i)
		res.JobDemand[i] = bank.JobDemand(i)
		w.Release()
	}
	enginePool.Put(eng)
	same = make([]bool, len(shadows))
	for j, s := range shadows {
		same[j] = bank.Reproduced(s)
	}
	return res, same, nil
}
