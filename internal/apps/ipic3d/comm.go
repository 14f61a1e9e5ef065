package ipic3d

import (
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Tags for the particle-communication experiment.
const (
	fwdTag = 11 // reference neighbour forwarding
	aggTag = 12 // decoupled comm-group -> compute-rank aggregated arrivals
)

// commPlace spreads a decoupled comm run's two groups each evenly over
// cores workers: compute rank i goes to worker i*cores/computes, helper
// j (by index within the communication group) to worker j*cores/helpers.
// The comm experiment touches no files, so no pinning constraint
// applies.
func commPlace(cores, computes, helpers int) func(rank int) int {
	return func(rank int) int {
		if rank < computes {
			return rank * cores / computes
		}
		return (rank - computes) * cores / helpers
	}
}

// commWorldConfig builds a comm run's mpi configuration, applying the
// parallel-mode worker count (and, for the decoupled run, its group
// placement) when Cores is set.
func (c Config) commWorldConfig(computes, helpers int) mpi.Config {
	mc := mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.Tracer}
	if c.Cores >= 1 {
		mc.Shards = c.Cores
		if helpers > 0 {
			mc.Place = commPlace(c.Cores, computes, helpers)
		}
	}
	return mc
}

// RunCommReference executes the reference particle communication (Fig. 7,
// blue bars): after the mover, every process forwards exiting particles to
// its six direct neighbours; forwarding repeats (diagonal movers travel
// one dimension per round) until a global allreduce finds no particle left
// in flight — the paper's (DimX+DimY+DimZ)-bounded scheme with the
// per-round termination check.
func RunCommReference(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if c.Cores >= 1 && c.Tracer != nil {
		return Result{}, &mpi.CannotShardError{Feature: "tracing", Flag: "-cores"}
	}
	w := mpi.NewWorld(c.commWorldConfig(c.Procs, 0))
	dims := dims3(c.Procs)
	field := c.field(dims, c.Procs)
	// totalRounds is written by rank 0 alone.
	totalRounds := 0
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		cart := mpi.NewCart(world, dims[:], true)
		me := world.RankOf(r)
		coords := cart.Coords(me)
		myCount := field.Count([3]int{coords[0], coords[1], coords[2]})
		exitFrac := field.ExitFraction([3]int{coords[0], coords[1], coords[2]}, c.Mobility)
		packTime := func(bytes int64) sim.Time {
			return sim.FromSeconds(float64(bytes) / c.PackRate)
		}
		step := 0
		var outbound, inbound int64
		rounds := 0
		got := 0
		reqs := make([]*mpi.Request, 0, 6)
		// Every continuation of the step/round state machine is built
		// once, here: a closure inside the loops would allocate per round
		// trip (the forwarding rounds are the per-message hot path).
		var stepLoop, roundLoop, recvLoop, agree sim.StepFunc
		var onRecv func(mpi.Status) sim.StepFunc
		var onSent func([]mpi.Status) sim.StepFunc
		var onAgreed func(mpi.Part) sim.StepFunc
		startRound := sim.Then(func() {
			outbound = int64(float64(myCount) * exitFrac)
			rounds = 0
		}, &roundLoop)
		stepLoop = func(_ *sim.Fiber) sim.StepFunc {
			if step >= c.Steps {
				return nil
			}
			step++
			// Mover: update particle positions (skewed per-rank load).
			return r.FComputeLabeled(c.moverTime(myCount), "mover", startRound)
		}
		startRecv := sim.Then(func() { got = 0 }, &recvLoop)
		roundLoop = func(_ *sim.Fiber) sim.StepFunc {
			counts := exitCounts(outbound)
			reqs = reqs[:0]
			dir := 0
			inbound = 0
			for dim := 0; dim < 3; dim++ {
				for _, disp := range []int{-1, 1} {
					_, dst := cart.Shift(me, dim, disp)
					bytes := counts[dir] * c.ParticleBytes
					reqs = append(reqs, world.Isend(r, dst, fwdTag, bytes, counts[dir]))
					dir++
				}
			}
			// Packing the outbound buffers costs CPU every round.
			return r.FComputeLabeled(packTime(outbound*c.ParticleBytes), "pack", startRecv)
		}
		onRecv = func(st mpi.Status) sim.StepFunc {
			inbound += st.Data.(int64)
			return recvLoop
		}
		recvLoop = func(_ *sim.Fiber) sim.StepFunc {
			if got < 6 {
				got++
				return world.FRecv(r, mpi.AnySource, fwdTag, onRecv)
			}
			return world.FWaitAll(r, reqs, onSent)
		}
		unpacked := sim.Then(func() {
			rounds++
			// Diagonal movers must continue along another dimension.
			outbound = int64(float64(inbound) * c.ForwardContinue)
		}, &agree)
		onSent = func([]mpi.Status) sim.StepFunc {
			// Unpack and re-sort the arrivals before the next round.
			return r.FComputeLabeled(packTime(inbound*c.ParticleBytes), "unpack", unpacked)
		}
		// Global termination check, paid every round.
		agree = func(_ *sim.Fiber) sim.StepFunc {
			return world.FAllreduce(r, mpi.Part{Bytes: 8, Data: outbound}, mpi.SumInt64, nil, onAgreed)
		}
		onAgreed = func(part mpi.Part) sim.StepFunc {
			if part.Data.(int64) == 0 {
				if me == 0 {
					totalRounds += rounds
				}
				return stepLoop
			}
			return roundLoop
		}
		return stepLoop
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Time: w.Makespan(), Messages: w.MessagesSent(), ForwardRounds: totalRounds}
	w.Release()
	return res, nil
}

// commMsg tags one streamed batch of exiting particles.
type commMsg struct {
	dst  int // destination compute rank (world rank)
	step int
}

// RunCommDecoupled executes the decoupled particle communication (Fig. 7,
// red bars; Fig. 2 bottom trace): compute ranks stream exiting particles
// to the communication group as soon as the mover finds them; the group
// aggregates arrivals by destination first-come-first-served and forwards
// each destination's particles in one pass, so every particle takes at
// most two hops and no global termination check exists.
func RunCommDecoupled(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if c.Cores >= 1 && c.Tracer != nil {
		return Result{}, &mpi.CannotShardError{Feature: "tracing", Flag: "-cores"}
	}
	helpers := int(float64(c.Procs)*c.Alpha + 0.5)
	if helpers < 1 {
		helpers = 1
	}
	computes := c.Procs - helpers
	w := mpi.NewWorld(c.commWorldConfig(computes, helpers))
	dims := dims3(computes)
	field := c.field(dims, computes)
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		role := stream.Producer
		if r.ID() >= computes {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, world, role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, stream.Options{ElementBytes: c.ParticleBytes})
			finish := func(_ *sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			if role == stream.Producer {
				g0 := ch.ProducerComm()
				cart := mpi.NewCart(g0, dims[:], true)
				me := g0.RankOf(r)
				coords := cart.Coords(me)
				myCount := field.Count([3]int{coords[0], coords[1], coords[2]})
				exitFrac := field.ExitFraction([3]int{coords[0], coords[1], coords[2]}, c.Mobility)
				// The mover emits exiting particles in bursts through the
				// step, not only at its end: each step's mover is split
				// into six sub-phases, streaming one direction's leavers
				// after each (the fine-grained flow of Section II-C).
				// Arrivals are consumed opportunistically: the compute rank
				// injects whatever aggregated particles have arrived at each
				// step boundary instead of blocking for them, so no step is
				// coupled to a delayed peer (the dataflow semantics of
				// Section II-B). One aggregate per step is owed in total.
				arrived := 0
				pendingAgg := world.Irecv(r, mpi.AnySource, aggTag)
				step := 0
				var counts [6]int64
				k := 0
				// All continuations are hoisted out of the loops
				// (per-direction emit, aggregate test, drain), so a
				// steady-state sweep step allocates nothing beyond its
				// stream elements and requests.
				var stepLoop, dirLoop, testLoop, drainLoop sim.StepFunc
				var onTest func(bool, mpi.Status) sim.StepFunc
				var onDrained func(mpi.Status) sim.StepFunc
				emit := sim.Then(func() {
					idx := k - 1
					_, dst := cart.Shift(me, idx/2, -1+2*(idx%2))
					bytes := counts[idx] * c.ParticleBytes
					// Packing folds into the mover sweep: exiting particles
					// are appended to the outbound buffer as the mover finds
					// them (application-specific optimization on the
					// decoupled path).
					st.IsendTo(r, stream.Element{
						Bytes: bytes,
						Data:  commMsg{dst: dst, step: step},
					}, ch.HomeConsumer(dst))
				}, &dirLoop)
				stepLoop = func(_ *sim.Fiber) sim.StepFunc {
					if step >= c.Steps {
						st.Terminate(r)
						return drainLoop
					}
					counts = exitCounts(int64(float64(myCount) * exitFrac))
					k = 0
					return dirLoop
				}
				dirLoop = func(_ *sim.Fiber) sim.StepFunc {
					if k >= 6 {
						return testLoop
					}
					k++
					return r.FComputeLabeled(c.moverTime(myCount)/6, "mover", emit)
				}
				onTest = func(ok bool, _ mpi.Status) sim.StepFunc {
					if !ok {
						step++
						return stepLoop
					}
					arrived++ // arrivals integrate into the next sweep
					if arrived < c.Steps {
						pendingAgg = world.Irecv(r, mpi.AnySource, aggTag)
					}
					return testLoop
				}
				testLoop = func(_ *sim.Fiber) sim.StepFunc {
					if arrived >= c.Steps {
						step++
						return stepLoop
					}
					return world.FTest(r, pendingAgg, onTest)
				}
				onDrained = func(mpi.Status) sim.StepFunc {
					arrived++
					if arrived < c.Steps {
						pendingAgg = world.Irecv(r, mpi.AnySource, aggTag)
					}
					return drainLoop
				}
				// Drain the remaining aggregates before exiting.
				drainLoop = func(_ *sim.Fiber) sim.StepFunc {
					if arrived >= c.Steps {
						return finish
					}
					return world.FWait(r, pendingAgg, onDrained)
				}
				return stepLoop
			}
			// Communication group: aggregate by destination, forward in
			// one pass once a destination's six batches for a step have
			// arrived.
			type key struct{ dst, step int }
			pending := make(map[key]int)
			volume := make(map[key]int64)
			return st.FOperate(r, func(rr *mpi.Rank, e stream.Element, src int, then sim.StepFunc) sim.StepFunc {
				cm := e.Data.(commMsg)
				k := key{dst: cm.dst, step: cm.step}
				pending[k]++
				volume[k] += e.Bytes
				if pending[k] == 6 {
					world.IsendAndFree(rr, cm.dst, aggTag, volume[k], nil)
					delete(pending, k)
					delete(volume, k)
				}
				return then
			}, func(stream.Stats) sim.StepFunc { return finish })
		})
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Time: w.Makespan(), Messages: w.MessagesSent()}
	w.Release()
	return res, nil
}
