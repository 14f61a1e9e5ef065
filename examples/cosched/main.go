// Cosched demonstrates multi-job co-scheduling: three decoupled iPIC3D
// particle-I/O jobs (the paper's Fig. 8 "Decoupling" variant) run as
// independent worlds on one simulation engine, their I/O groups all
// contending for the same striped file-system bank. The example runs the
// same job mix under each inter-job arbitration policy — FCFS, fair
// share and its work-conserving variant fair-wc — and prints how each
// job's completion time moves relative to running alone on an idle bank,
// plus the hog's tail: how long it runs on after the last light job
// finishes. Under fair share the tail crawls at the hog's capped share
// even though the bank is otherwise idle; under fair-wc the lights'
// unused entitlement flows back and the tail proceeds at the full bank
// rate. See README.md for the walkthrough.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/ipic3d"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	perJobProcs = 16
	stripes     = 1 // a narrow bank: the hog's backlog is everyone's problem
)

// jobConfig builds job i's application config: job 0 saves its full
// particle population every step (the I/O hog), the others down-sample.
func jobConfig(i int) ipic3d.Config {
	c := ipic3d.DefaultConfig(perJobProcs)
	c.Seed = int64(100 + i)
	c.MoveRate = 4e6 // fast mover: the bank, not compute, is the bottleneck
	c.BufferSteps = 1
	c.SaveFraction = 0.25
	if i == 0 {
		c.SaveFraction = 1.0
	}
	return c
}

// job wraps jobConfig(i) as a cluster job.
func job(i int) cluster.Job {
	c := jobConfig(i)
	name := fmt.Sprintf("j%d", i)
	if i == 0 {
		name = "hog"
	}
	return cluster.Job{
		Name: name,
		Start: func(base mpi.Config) (*mpi.World, error) {
			j, err := ipic3d.StartIO(c, ipic3d.IODecoupled, base)
			if err != nil {
				return nil, err
			}
			return j.World(), nil
		},
	}
}

func main() {
	const jobs = 3

	// Baseline: each job alone on an identical (idle) bank.
	alone := make([]sim.Time, jobs)
	for i := range alone {
		res, err := cluster.Run(cluster.Config{
			Jobs:    []cluster.Job{job(i)},
			Stripes: stripes,
			Seed:    1,
		})
		if err != nil {
			log.Fatal(err)
		}
		alone[i] = res.JobTimes[0]
	}

	// One call runs the job mix under all three policies. A run under one
	// policy stands in for another only if that policy's bank would have
	// granted every reservation identically; on this one-stripe bank none
	// would, so all three are simulated.
	cjobs := make([]cluster.Job, jobs)
	for i := range cjobs {
		cjobs[i] = job(i)
	}
	policies := []sim.BankPolicy{sim.BankFCFS, sim.BankFair, sim.BankFairWC}
	results, err := cluster.RunPolicies(cluster.Config{
		Jobs:    cjobs,
		Stripes: stripes,
		Seed:    1,
	}, policies)
	if err != nil {
		log.Fatal(err)
	}
	for k, res := range results {
		// The hog's tail: how long it keeps writing after the last light
		// job is gone — the interval where work conservation matters.
		lastLight := sim.Max(res.JobTimes[1], res.JobTimes[2])
		tail := res.JobTimes[0] - lastLight
		if tail < 0 {
			tail = 0
		}
		fmt.Printf("%-11s  makespan %v, hog tail %v\n", policies[k], res.Makespan, tail)
		for i, jt := range res.JobTimes {
			fmt.Printf("  job %d: %v alone, %v co-scheduled (slowdown %.2fx, %v of stripe time, %v I/O-active)\n",
				i, alone[i], jt, float64(jt)/float64(alone[i]), res.JobBusy[i], res.JobDemand[i])
		}
	}
}
