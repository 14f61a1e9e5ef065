package ipic3d

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// IOVariant selects a particle-I/O implementation (Fig. 8).
type IOVariant int

// The three implementations of Fig. 8.
const (
	// IOCollective is MPI_File_write_all: two-phase collective I/O with
	// a file view recalculated every step (particle counts change).
	IOCollective IOVariant = iota
	// IOShared is MPI_File_write_shared: shared-file-pointer writes
	// whose consistency semantics serialize at scale.
	IOShared
	// IODecoupled streams particles to a dedicated I/O group that
	// buffers aggressively and issues few large writes, overlapped with
	// the computation.
	IODecoupled
)

// String names the variant as the figure legend does.
func (v IOVariant) String() string {
	switch v {
	case IOCollective:
		return "RefColl"
	case IOShared:
		return "RefShared"
	case IODecoupled:
		return "Decoupling"
	default:
		return fmt.Sprintf("IOVariant(%d)", int(v))
	}
}

// validIOVariant rejects values outside the three implementations.
func validIOVariant(v IOVariant) error {
	switch v {
	case IOCollective, IOShared, IODecoupled:
		return nil
	default:
		return fmt.Errorf("ipic3d: unknown IO variant %d", int(v))
	}
}

// RunIO executes the selected particle-I/O implementation.
func RunIO(c Config, v IOVariant) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if err := validIOVariant(v); err != nil {
		return Result{}, err
	}
	if c.Faults != nil && len(c.Faults.Crash) > 0 {
		// The plain Fig. 8 bodies have no Protect scopes: a crash would
		// kill the job unrecoverably. Crash campaigns go through
		// RunRecovery, whose bodies checkpoint and replay.
		return Result{}, fmt.Errorf("ipic3d: crash campaign on a plain I/O run; use RunRecovery")
	}
	mc := mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.Tracer}
	if c.Faults != nil {
		mc.RankFaults = c.Faults.Rank
		mc.StripeFaults = c.Faults.Stripe
		mc.LinkFaults = c.Faults.Link
		mc.MsgFaults = c.Faults.Msg
	}
	s := newIORun(c, v)
	if c.Cores >= 1 {
		mc.Shards, mc.Place = s.placement(c.Cores)
	}
	// Message faults or tracing with -cores are refused here rather than
	// by a panic deep inside a sweep.
	if err := mc.Validate(); err != nil {
		return Result{}, err
	}
	w := mpi.NewWorld(mc)
	if _, err := w.RunFibers(s.body()); err != nil {
		return Result{}, err
	}
	res := s.result(w)
	w.Release()
	return res, nil
}

// saveBytes is the per-step output volume of a rank holding count
// particles.
func (c Config) saveBytes(count int64) int64 {
	return int64(float64(count)*c.SaveFraction) * c.ParticleBytes
}

// ioRun is one particle-I/O job's body state, shared by the single-world
// (RunIO) and co-scheduled (StartIO) drivers.
type ioRun struct {
	c Config
	v IOVariant
	layout

	// lastCompute[i] is when rank i finished its final mover slice: rank
	// i writes only slot i, so ranks hosted on different parallel-mode
	// workers never share a word. The I/O tail is folded from it after
	// the engines stop.
	lastCompute []sim.Time
	file        *mpi.File
}

// noteCompute records the end of a rank's final mover.
func (s *ioRun) noteCompute(r *mpi.Rank) {
	s.lastCompute[r.ID()] = r.Now()
}

// placement maps the job's ranks onto cores workers: the decoupled
// variant spreads its compute group evenly and pins the I/O group to the
// last worker (file I/O is engine-local, so a file's users must share a
// worker); the reference variants write one shared file from every rank,
// which forces the whole job onto a single worker.
func (s *ioRun) placement(cores int) (int, func(rank int) int) {
	if s.v != IODecoupled {
		return 1, nil
	}
	computes := s.computes
	return cores, func(rank int) int {
		if rank >= computes {
			return cores - 1
		}
		return rank * cores / computes
	}
}

// newIORun derives the job's particle layout for the chosen variant.
func newIORun(c Config, v IOVariant) *ioRun {
	return &ioRun{c: c, v: v, layout: newLayout(c, v), lastCompute: make([]sim.Time, c.Procs)}
}

// layout is the particle layout of a Fig. 8 run, shared by the I/O bodies
// and the crash-recovery bodies.
type layout struct {
	// computes is the number of ranks holding particles: all of them for
	// the reference variants, Procs minus the I/O group for IODecoupled.
	computes int
	// ioProcs is the decoupled I/O group size (0 for reference variants).
	ioProcs int
	dims    [3]int
	field   workload.ParticleField
}

func newLayout(c Config, v IOVariant) layout {
	l := layout{computes: c.Procs}
	if v == IODecoupled {
		l.ioProcs = max(int(float64(c.Procs)*c.Alpha+0.5), 1)
		l.computes = c.Procs - l.ioProcs
	}
	l.dims = dims3(l.computes)
	l.field = c.field(l.dims, l.computes)
	return l
}

// body returns the rank body for the job's variant.
func (s *ioRun) body() mpi.FiberMain {
	if s.v == IODecoupled {
		return s.decoupledBody()
	}
	return s.referenceBody()
}

// result collects the job's outcome once the engine has run.
func (s *ioRun) result(w *mpi.World) Result {
	makespan := w.Makespan()
	tail := max(makespan-slices.Max(s.lastCompute), 0)
	return Result{Time: makespan, Messages: w.MessagesSent(), BytesWritten: s.file.BytesWritten(), IOTail: tail, Retransmits: w.Retransmits()}
}

// relWindow is the decoupled producers' ack window under a lossy fabric:
// a producer pauses once this many stream sends sit unacknowledged, so a
// consumer falling behind on retransmissions exerts backpressure instead
// of letting fire-and-forget bursts pile up unbounded. Two steps' worth
// of bursts keeps the overlap pipeline full at moderate loss rates. On a
// lossless world WaitSendWindow is a no-op, so the pacing leaves
// zero-loss trajectories byte-identical.
const relWindow = 8

// IOJob is a particle-I/O job started on a shared engine for co-scheduled
// multi-world runs (internal/cluster): StartIO spawns the rank bodies but
// does not run the engine.
type IOJob struct {
	w *mpi.World
}

// StartIO builds a world for the Fig. 8 job of variant v attached to the
// shared simulation resources in base (Engine, Bank, Job, Name and the
// cluster-wide FS cost model) and spawns its rank bodies. The caller —
// normally a cluster.Job's Start hook — runs the shared engine once every
// job is started.
func StartIO(c Config, v IOVariant, base mpi.Config) (*IOJob, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := validIOVariant(v); err != nil {
		return nil, err
	}
	base.Procs = c.Procs
	base.Seed = c.Seed
	base.Noise = c.Noise
	base.Tracer = c.Tracer
	if c.Faults != nil {
		if c.Faults.Stripe != nil {
			// Stripe faults in a co-scheduled run degrade the shared bank,
			// which belongs to the cluster (cluster.Config.StripeFaults).
			return nil, fmt.Errorf("ipic3d: stripe faults on a co-scheduled job; install them on the shared bank via cluster.Config")
		}
		if len(c.Faults.Crash) > 0 {
			return nil, fmt.Errorf("ipic3d: crash campaign on a plain I/O job; use RunRecovery")
		}
		if c.Faults.Msg != nil {
			// Reliable-delivery worlds keep retransmission timers pending
			// on the engine past their bodies' completion; on a shared
			// engine those timers would stretch every co-scheduled job's
			// final time. Lossy campaigns run single-world via RunIO.
			return nil, fmt.Errorf("ipic3d: message-fault campaign on a co-scheduled job; lossy runs go through RunIO")
		}
		base.RankFaults = c.Faults.Rank
		base.LinkFaults = c.Faults.Link
	}
	s := newIORun(c, v)
	w := mpi.NewWorld(base)
	w.StartFibers(s.body())
	return &IOJob{w: w}, nil
}

// World reports the job's world (for per-job makespans via Makespan).
func (j *IOJob) World() *mpi.World { return j.w }

// referenceBody: every process moves its particles, then saves them with
// the chosen MPI-IO path before the next step.
func (s *ioRun) referenceBody() mpi.FiberMain {
	c, v := s.c, s.v
	return func(r *mpi.Rank, fib *sim.Fiber) sim.StepFunc {
		world := r.World()
		cart := mpi.NewCart(world, s.dims[:])
		coords := cart.Coords(world.RankOf(r))
		myCount := s.field.Count([3]int{coords[0], coords[1], coords[2]})
		return world.FOpen(r, "particles.dat", func(f *mpi.File) sim.StepFunc {
			s.file = f
			out := c.saveBytes(myCount)
			step := 0
			var stepLoop, save sim.StepFunc
			save = func(_ *sim.Fiber) sim.StepFunc {
				// save runs at the mover's completion instant.
				if step == c.Steps {
					s.noteCompute(r)
				}
				if v == IOCollective {
					// Two-phase collective write; the embedded allgatherv
					// is the per-step file-view recalculation the paper
					// describes.
					return f.FWriteAll(r, out, stepLoop)
				}
				return f.FWriteShared(r, out, stepLoop)
			}
			stepLoop = func(_ *sim.Fiber) sim.StepFunc {
				if step >= c.Steps {
					return nil
				}
				step++
				return r.FComputeLabeled(c.moverTime(myCount), "mover", save)
			}
			return stepLoop
		})
	}
}

// decoupledBody: compute ranks stream particle output to the I/O group as
// the mover produces it; the I/O group buffers several steps' arrivals and
// flushes them in large shared writes, overlapping file-system time with
// the computation of subsequent steps.
func (s *ioRun) decoupledBody() mpi.FiberMain {
	c := s.c
	computes, ioProcs := s.computes, s.ioProcs
	return func(r *mpi.Rank, fib *sim.Fiber) sim.StepFunc {
		world := r.World()
		role := stream.Producer
		if r.ID() >= computes {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, world, role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, stream.Options{})
			finish := func(_ *sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			if role == stream.Producer {
				g0 := ch.ProducerComm()
				cart := mpi.NewCart(g0, s.dims[:])
				coords := cart.Coords(g0.RankOf(r))
				myCount := s.field.Count([3]int{coords[0], coords[1], coords[2]})
				out := c.saveBytes(myCount)
				burstTime := c.moverTime(myCount) / 4
				step, burst := 0, 0
				var stepLoop sim.StepFunc
				emit := func(_ *sim.Fiber) sim.StepFunc {
					// Runs at the burst's compute-completion instant; the
					// final burst of the final step is the producer's last
					// mover work.
					if step == c.Steps-1 && burst == 4 {
						s.noteCompute(r)
					}
					st.Isend(r, stream.Element{Bytes: out / 4})
					if r.Reliable() {
						return r.FWaitSendWindow(relWindow, stepLoop)
					}
					return stepLoop
				}
				stepLoop = func(_ *sim.Fiber) sim.StepFunc {
					if step >= c.Steps {
						st.Terminate(r)
						return finish
					}
					// The mover emits output in bursts through the step.
					if burst >= 4 {
						burst = 0
						step++
						return stepLoop
					}
					burst++
					return r.FComputeLabeled(burstTime, "mover", emit)
				}
				return stepLoop
			}
			return ch.ConsumerComm().FOpen(r, "particles.dat", func(f *mpi.File) sim.StepFunc {
				s.file = f
				// Aggressive buffering: flush one large shared write per
				// BufferSteps steps' worth of my producers' output, while
				// the compute group keeps working.
				perProducerStep := c.saveBytes(c.ParticlesPerProc)
				producersHere := int64((computes + ioProcs - 1) / ioProcs)
				threshold := int64(c.BufferSteps) * perProducerStep * producersHere
				var buffered int64
				return st.FOperate(r, func(rr *mpi.Rank, e stream.Element, src int, then sim.StepFunc) sim.StepFunc {
					buffered += e.Bytes
					if buffered >= threshold {
						b := buffered
						buffered = 0
						return f.FWriteShared(rr, b, then)
					}
					return then
				}, func(stream.Stats) sim.StepFunc {
					if buffered > 0 {
						return f.FWriteShared(r, buffered, finish)
					}
					return finish
				})
			})
		})
	}
}
