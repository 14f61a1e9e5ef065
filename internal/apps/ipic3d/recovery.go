// Checkpoint-aware iPIC3D bodies: the Fig. 8 particle-I/O variants
// recast as a crash-tolerant iterative application. Every rank runs its
// mover steps inside a Protect scope; every CkptEvery steps the job
// writes a full-state checkpoint through the variant's I/O path and
// commits the step counter to stable storage (the run-owned recRun
// struct, which survives rank respawns). A crash revokes the world
// (ULFM-style, see internal/mpi/failure.go), every survivor unwinds to
// its Protect scope, the victim respawns after the campaign's restart
// cost, and all ranks rebuild and replay from the last committed step —
// the replayed mover work is the run's wasted compute.
//
// The decoupled variant checkpoints the way it saves particles: compute
// ranks ship every step's state to the dedicated I/O group with
// fire-and-forget sends and keep computing. The I/O group is a separate
// fault domain, so its in-memory copy of the absorbed state is itself a
// commit level: the group advances the restart point every step it has
// fully absorbed, and flushes a full-state snapshot to the bank every
// CkptEvery steps. A compute-rank crash replays only the commit lag
// (about a step); an I/O-rank crash takes the memory tier with it and
// falls back to the last bank checkpoint — the trade the recovery
// experiment measures.
package ipic3d

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// recCkptTag carries checkpoint shipments (and their committed-to step)
// from compute ranks to the decoupled I/O group on the world
// communicator. Distinct from fwdTag/aggTag; collectives tag above
// 1<<24.
const recCkptTag = 13

// recCkptFile is the shared checkpoint file name.
const recCkptFile = "checkpoint.dat"

// RecoveryResult reports one checkpoint/restart run's outcome.
type RecoveryResult struct {
	// Time is the effective makespan: base work plus checkpoint
	// overhead, restart costs and replayed work.
	Time sim.Time
	// TotalCompute is the mover time executed across all ranks and all
	// attempts, replays included.
	TotalCompute sim.Time
	// UsefulCompute is the mover time a crash-free run needs: Steps
	// passes over the particle grid.
	UsefulCompute sim.Time
	// WastedCompute is TotalCompute minus UsefulCompute: mover work
	// redone because a crash rolled the job back to its last checkpoint.
	WastedCompute sim.Time
	// Restarts counts rank respawns (one per delivered crash).
	Restarts int64
	// Failovers counts Protect-scope unwinds across all ranks: every
	// delivered crash fails the whole world once, so this is roughly
	// crashes times live ranks.
	Failovers int64
	// Checkpoints is the number of checkpoint write operations issued.
	Checkpoints int64
	// CheckpointBytes is the checkpoint volume on the file system,
	// replayed checkpoints included.
	CheckpointBytes int64
	// Messages is the point-to-point message count.
	Messages int64
}

// WastedFraction is WastedCompute over TotalCompute (0 for a crash-free
// run).
func (res RecoveryResult) WastedFraction() float64 {
	if res.TotalCompute == 0 {
		return 0
	}
	return float64(res.WastedCompute) / float64(res.TotalCompute)
}

// RunRecovery executes the checkpoint-aware body for the selected I/O
// variant with a checkpoint every ckptEvery steps. It is the only
// ipic3d entry point that accepts a crash-carrying campaign: the plain
// Fig. 8 bodies have no Protect scopes and would die unrecoverably.
func RunRecovery(c Config, v IOVariant, ckptEvery int) (RecoveryResult, error) {
	if err := c.Validate(); err != nil {
		return RecoveryResult{}, err
	}
	if err := validIOVariant(v); err != nil {
		return RecoveryResult{}, err
	}
	if ckptEvery < 1 {
		return RecoveryResult{}, fmt.Errorf("ipic3d: checkpoint interval %d", ckptEvery)
	}
	if c.Faults != nil && c.Faults.Msg != nil {
		// An unreachable rank revokes the world with an error the bodies
		// do not recover from: they rebuild after a crash, not a link
		// the protocol gave up on.
		return RecoveryResult{}, fmt.Errorf("ipic3d: message-fault campaign on a recovery run; it recovers from crashes only")
	}
	mc := mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.Tracer}
	if c.Faults != nil {
		mc.RankFaults = c.Faults.Rank
		mc.StripeFaults = c.Faults.Stripe
		mc.LinkFaults = c.Faults.Link
		mc.Crashes = c.Faults.Crash
	}
	w := mpi.NewWorld(mc)
	s := newRecRun(c, v, ckptEvery)
	if _, err := w.RunFibers(s.body()); err != nil {
		return RecoveryResult{}, err
	}
	res := s.result(w)
	w.Release()
	return res, nil
}

// recRun is one recovery job's state. Everything here is the job's
// stable storage: rank bodies (and their respawned incarnations) read
// and write it, and committed is the globally agreed restart point.
type recRun struct {
	c         Config
	v         IOVariant
	ckptEvery int
	layout

	// committed is the restart point: every rank replays from here after
	// a failure. The reference variants advance it at the barrier closing
	// each checkpoint; the decoupled variant's I/O group advances it for
	// every step fully absorbed into I/O-group memory.
	committed int
	// bankCommitted is the last step whose full-state snapshot reached
	// the bank. For the reference variants it tracks committed; for the
	// decoupled variant it trails it, and is the fallback restart point
	// when an I/O rank — the memory tier — is the crash victim.
	bankCommitted int

	totalCompute sim.Time
	restarts     int64
	failovers    int64
	file         *mpi.File
}

func newRecRun(c Config, v IOVariant, ckptEvery int) *recRun {
	return &recRun{c: c, v: v, ckptEvery: ckptEvery, layout: newLayout(c, v)}
}

// segEnd is the step the next checkpoint commits, from the current
// committed (or locally reached) step.
func (s *recRun) segEnd(from int) int {
	to := from + s.ckptEvery
	if to > s.c.Steps {
		to = s.c.Steps
	}
	return to
}

// ckptBytes is a rank's full-state checkpoint volume.
func (s *recRun) ckptBytes(count int64) int64 {
	return count * s.c.ParticleBytes
}

// ioHome maps a compute rank to the I/O-group world rank that owns its
// checkpoint shipments (decoupled variant).
func (s *recRun) ioHome(g int) int {
	return s.computes + g*s.ioProcs/s.computes
}

// prodCount is producer g's particle count: its grid cell in the same
// row-major order Cart assigns coordinates (last dimension fastest).
func (s *recRun) prodCount(g int) int64 {
	var coord [3]int
	for i := 2; i >= 0; i-- {
		coord[i] = g % s.dims[i]
		g /= s.dims[i]
	}
	return s.field.Count(coord)
}

// noteFailure adjusts the restart point for a delivered crash. The
// decoupled variant's per-step commits live in I/O-group memory: they
// survive a compute-rank crash (a different fault domain) but die with
// an I/O rank, in which case the job falls back to the last bank
// snapshot. Idempotent — every surviving rank reports the same failure.
func (s *recRun) noteFailure(err *mpi.RankFailedError) {
	if s.v == IODecoupled && err.Rank >= s.computes && s.committed > s.bankCommitted {
		s.committed = s.bankCommitted
	}
}

// usefulCompute is the mover time one crash-free pass of all Steps
// needs, summed over the particle grid. The mapping of ranks to grid
// cells cancels out of the sum, so no communicator is needed.
func (s *recRun) usefulCompute() sim.Time {
	var perStep sim.Time
	for x := 0; x < s.dims[0]; x++ {
		for y := 0; y < s.dims[1]; y++ {
			for z := 0; z < s.dims[2]; z++ {
				perStep += s.c.moverTime(s.field.Count([3]int{x, y, z}))
			}
		}
	}
	return sim.Time(s.c.Steps) * perStep
}

// result collects the run's outcome once the engine has run.
func (s *recRun) result(w *mpi.World) RecoveryResult {
	useful := s.usefulCompute()
	return RecoveryResult{
		Time:            w.Makespan(),
		TotalCompute:    s.totalCompute,
		UsefulCompute:   useful,
		WastedCompute:   s.totalCompute - useful,
		Restarts:        s.restarts,
		Failovers:       s.failovers,
		Checkpoints:     s.file.Ops(),
		CheckpointBytes: s.file.BytesWritten(),
		Messages:        w.MessagesSent(),
	}
}

// body returns the rank body for the job's variant: the attempt inside
// a protect scope that, on a peer failure, notes it, joins the rebuild
// rendezvous and replays from the last committed step.
func (s *recRun) body() mpi.FiberMain {
	return func(r *mpi.Rank, fib *sim.Fiber) sim.StepFunc {
		var attempt sim.StepFunc
		if s.v == IODecoupled {
			attempt = s.decoupledAttempt(r)
		} else {
			attempt = s.referenceAttempt(r)
		}
		var onFail func(error) sim.StepFunc
		onFail = func(err error) sim.StepFunc {
			rf, ok := err.(*mpi.RankFailedError)
			if !ok {
				panic(err)
			}
			s.failovers++
			s.noteFailure(rf)
			return r.FRebuild(r.FProtect(attempt, onFail))
		}
		start := r.FProtect(attempt, onFail)
		if r.Incarnation() > 0 {
			// A respawned victim: join the survivors' rebuild rendezvous
			// before replaying from the last checkpoint.
			s.restarts++
			return r.FRebuild(start)
		}
		return start
	}
}

// referenceAttempt is one protected pass of a coupled variant: mover
// steps, then a full-state checkpoint through WriteAll or WriteShared,
// closed by a commit barrier. Every (re)entry starts with the collective
// Open, which both resolves the shared file and synchronizes the
// attempt across ranks.
func (s *recRun) referenceAttempt(r *mpi.Rank) sim.StepFunc {
	c, v := s.c, s.v
	world := r.World()
	cart := mpi.NewCart(world, s.dims[:])
	coords := cart.Coords(world.RankOf(r))
	myCount := s.field.Count([3]int{coords[0], coords[1], coords[2]})
	mt := c.moverTime(myCount)
	out := s.ckptBytes(myCount)
	return func(_ *sim.Fiber) sim.StepFunc {
		return world.FOpen(r, recCkptFile, func(f *mpi.File) sim.StepFunc {
			s.file = f
			i, to := 0, 0
			var segLoop, stepLoop, write, commit sim.StepFunc
			counted := func(_ *sim.Fiber) sim.StepFunc {
				s.totalCompute += mt
				return stepLoop
			}
			segLoop = func(_ *sim.Fiber) sim.StepFunc {
				if s.committed >= c.Steps {
					return nil
				}
				i = s.committed
				to = s.segEnd(i)
				return stepLoop
			}
			stepLoop = func(_ *sim.Fiber) sim.StepFunc {
				if i >= to {
					return write
				}
				i++
				return r.FComputeLabeled(mt, "mover", counted)
			}
			write = func(_ *sim.Fiber) sim.StepFunc {
				if v == IOCollective {
					return f.FWriteAll(r, out, commit)
				}
				return f.FWriteShared(r, out, commit)
			}
			// The commit barrier: once every rank's state for this segment
			// is written, the step counter moves. A crash before the barrier
			// replays the whole segment; after it, none of it.
			commit = func(_ *sim.Fiber) sim.StepFunc {
				return world.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
					return r.FCheckFailed(func(_ *sim.Fiber) sim.StepFunc {
						s.committed = to
						s.bankCommitted = to
						return segLoop
					})
				})
			}
			return segLoop
		})
	}
}

// decoupledAttempt is one protected pass of the decoupled variant.
// Compute ranks ship every step's state to their home I/O rank with
// fire-and-forget sends and keep computing. I/O ranks absorb one
// shipment per producer per step into memory, agree among themselves,
// and advance the restart point; every CkptEvery steps they also flush
// a full-state snapshot to the bank (one write per producer, so the
// flush pipelines across stripes) and advance the bank commit. The
// closing world barrier holds the job open until the final snapshot is
// durable.
func (s *recRun) decoupledAttempt(r *mpi.Rank) sim.StepFunc {
	c := s.c
	world := r.World()
	color := 0
	if r.ID() >= s.computes {
		color = 1
	}
	return func(_ *sim.Fiber) sim.StepFunc {
		return world.FOpen(r, recCkptFile, func(f *mpi.File) sim.StepFunc {
			s.file = f
			return world.FSplit(r, color, r.ID(), func(group *mpi.Comm) sim.StepFunc {
				finish := func(_ *sim.Fiber) sim.StepFunc {
					return world.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
						return r.FCheckFailed(nil)
					})
				}
				if color == 0 {
					g := group.RankOf(r)
					myCount := s.prodCount(g)
					mt := c.moverTime(myCount)
					out := s.ckptBytes(myCount)
					home := s.ioHome(g)
					local := s.committed
					var stepLoop sim.StepFunc
					counted := func(_ *sim.Fiber) sim.StepFunc {
						s.totalCompute += mt
						local++
						// Fire-and-forget shipment: this step's state plus
						// the step it advances the memory commit to. Commit
						// authority stays with the I/O group — if the world
						// fails before the group absorbs it, replay resumes
						// below local and the send is redone.
						world.IsendAndFree(r, home, recCkptTag, out, local)
						return r.FCheckFailed(stepLoop)
					}
					stepLoop = func(_ *sim.Fiber) sim.StepFunc {
						if local >= c.Steps {
							return finish
						}
						return r.FComputeLabeled(mt, "mover", counted)
					}
					return stepLoop
				}
				// acked[g] is the highest step producer g has shipped state
				// for; arrival order across producers is free, so a fast
				// producer's future steps are absorbed as they come
				// (buffering is the point of the I/O group).
				acked := make([]int, s.computes)
				for g := range acked {
					acked[g] = s.committed
				}
				mine := func(g int) bool { return s.ioHome(g) == r.ID() }
				next := 0
				outstanding := 0
				flushing := false
				flushG := 0
				var stepLoop, collect, flush sim.StepFunc
				// All I/O ranks have absorbed (and, on flush steps, written)
				// this step before anyone commits it.
				commit := func(_ *sim.Fiber) sim.StepFunc {
					return group.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
						return r.FCheckFailed(func(_ *sim.Fiber) sim.StepFunc {
							s.committed = next
							if flushing {
								s.bankCommitted = next
							}
							return stepLoop
						})
					})
				}
				onRecv := func(st mpi.Status) sim.StepFunc {
					prev := acked[st.Source]
					if v, _ := st.Data.(int); v > prev {
						acked[st.Source] = v
					}
					if prev < next && acked[st.Source] >= next {
						outstanding--
					}
					return collect
				}
				stepLoop = func(_ *sim.Fiber) sim.StepFunc {
					if s.committed >= c.Steps {
						return finish
					}
					next = s.committed + 1
					outstanding = 0
					for g := 0; g < s.computes; g++ {
						if mine(g) && acked[g] < next {
							outstanding++
						}
					}
					return collect
				}
				collect = func(f2 *sim.Fiber) sim.StepFunc {
					if outstanding > 0 {
						return world.FRecv(r, mpi.AnySource, recCkptTag, onRecv)
					}
					flushing = next%s.ckptEvery == 0 || next == c.Steps
					flushG = 0
					return flush(f2)
				}
				// Periodic durability: the current in-memory snapshot of my
				// producers goes to the bank, one write per producer.
				flush = func(f2 *sim.Fiber) sim.StepFunc {
					if !flushing {
						return commit(f2)
					}
					for flushG < s.computes && !mine(flushG) {
						flushG++
					}
					if flushG >= s.computes {
						return commit(f2)
					}
					g := flushG
					flushG++
					return f.FWriteShared(r, s.ckptBytes(s.prodCount(g)), flush)
				}
				return stepLoop
			})
		})
	}
}
