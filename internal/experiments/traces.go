package experiments

import (
	"fmt"
	"io"

	"repro/internal/apps/ipic3d"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig2 renders the paper's Fig. 2: HPCToolkit-style execution traces of
// the iPIC3D particle communication on seven processes, reference on top
// (computation and communication serialized on every rank) and decoupled
// below (P0-P5 compute while P6 communicates), width columns wide.
func Fig2(w io.Writer, width int) error {
	c := ipic3d.DefaultConfig(7)
	c.Steps = 4
	c.ParticlesPerProc = 150_000
	c.Noise = netmodel.DefaultNoise()

	var recRef trace.Recorder
	c.Tracer = &recRef
	refRes, err := ipic3d.RunCommReference(c)
	if err != nil {
		return err
	}
	var recDec trace.Recorder
	c.Tracer = &recDec
	decRes, err := ipic3d.RunCommDecoupled(c)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Fig. 2 — iPIC3D particle communication on 7 processes\n\n")
	fmt.Fprintf(w, "Reference implementation (total %v):\n", refRes.Time)
	if err := recRef.Timeline(w, width); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nDecoupled implementation (total %v; P6 is the communication group):\n", decRes.Time)
	if err := recDec.Timeline(w, width); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nThe decoupled run finishes earlier and its compute ranks show no\ncommunication-phase blocks; the paper's Fig. 2 shows the same contrast.\n")
	return nil
}

// Fig3 renders the paper's Fig. 3: the conceptual schedules of (a) the
// conventional model, (b) non-blocking operations, and (c) the decoupled
// approach, generated by actually executing a two-operation application on
// four processes, width columns wide.
func Fig3(w io.Writer, width int) error {
	const procs = 4
	base := DefaultSynthetic(procs)
	base.Alpha = 0.25 // one of four processes, like the figure's P3
	base.W0 = 600 * sim.Millisecond
	base.D = 24 << 20
	base.DecoupledRateGain = 3
	base.ImbalanceCoV = 0.3

	// (a) conventional.
	var recA trace.Recorder
	cfg := base
	cfg.Tracer = &recA
	ta, err := RunSyntheticConventional(cfg)
	if err != nil {
		return err
	}
	// (b) non-blocking: overlap within each process (modelled by running
	// Op1 as a nonblocking collective-style helper while Op0 runs).
	var recB trace.Recorder
	tb, err := runSyntheticNonblocking(base, &recB)
	if err != nil {
		return err
	}
	// (c) decoupled.
	var recC trace.Recorder
	cfg = base
	cfg.Tracer = &recC
	tc, err := RunSyntheticDecoupled(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Fig. 3 — two operations on four processes (#=Op0/compute, .=wait)\n\n")
	fmt.Fprintf(w, "(a) conventional model, all operations sequential on all processes (total %v):\n", ta)
	if err := recA.Timeline(w, width); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n(b) non-blocking operations absorb imbalance but do not pipeline (total %v):\n", tb)
	if err := recB.Timeline(w, width); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n(c) decoupled: Op1 moved to the last process, operations pipeline (total %v):\n", tc)
	return recC.Timeline(w, width)
}

// runSyntheticNonblocking is the middle panel of Fig. 3: Op1 still runs on
// every process, but as a nonblocking operation overlapped with Op0's
// tail, so imbalance is partially absorbed without pipelining across
// processes.
func runSyntheticNonblocking(c SyntheticConfig, tracer *trace.Recorder) (sim.Time, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	factors := workload.Imbalance(c.Procs, c.ImbalanceCoV, c.Seed+5)
	w := mpi.NewWorld(mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: tracer})
	_, err := w.Run(func(r *mpi.Rank) {
		world := r.World()
		// Op0 with imbalance; the exchange is posted nonblocking halfway
		// through, so the wait at the stage boundary shrinks.
		half := sim.Time(float64(c.W0) * factors[r.ID()] / 2)
		r.ComputeLabeled(half, "op0")
		done := world.Ibarrier(r) // stands for the nonblocking exchange
		r.ComputeLabeled(half, "op0")
		world.WaitColl(r, done)
		r.ComputeLabeled(c.tw1(), "op1")
		world.Barrier(r)
	})
	if err != nil {
		return 0, err
	}
	return w.Makespan(), nil
}
