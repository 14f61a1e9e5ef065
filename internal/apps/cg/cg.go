// Package cg reproduces the paper's Conjugate Gradient case study
// (Section IV-C): a CG solver for the Poisson equation on a Cartesian
// uniform grid, weak-scaled at 120^3 points per process, with the halo
// exchange implemented three ways:
//
//   - Blocking: dimension-ordered blocking neighbour exchange. Receive
//     dependencies chain across the process grid, so noise-induced delays
//     cascade (the idle-period propagation of the paper's refs [4][5]) and
//     the per-iteration synchronization grows with scale.
//   - Nonblocking: all twelve halo requests posted at once, inner stencil
//     computed while they fly, boundary computed after WaitAll (Hoefler's
//     NBC-optimized CG, the paper's stronger reference).
//   - Decoupled: boundary faces are streamed to a helper group that
//     aggregates the six neighbour faces per compute rank and returns them
//     in a single message, while the compute group works on the inner
//     stencil (the paper's decoupled implementation, alpha = 6.25%).
package cg

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Variant selects a halo-exchange implementation.
type Variant int

// The three implementations of Fig. 6.
const (
	Blocking Variant = iota
	Nonblocking
	Decoupled
)

// String names the variant as the figure legend does.
func (v Variant) String() string {
	switch v {
	case Blocking:
		return "Reference (Blocking)"
	case Nonblocking:
		return "Reference (Non-blocking)"
	case Decoupled:
		return "Decoupling"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config describes one CG experiment run.
type Config struct {
	// Procs is the total number of processes.
	Procs int
	// Alpha is the helper-group fraction for the Decoupled variant
	// (paper: 6.25%, one of every 16 processes).
	Alpha float64
	// PointsPerSide is the cubic subdomain edge per compute process
	// (paper: 120).
	PointsPerSide int
	// Iterations is the fixed iteration count (paper: 300). Experiments
	// may run fewer and scale: per-iteration behaviour is stationary.
	Iterations int
	// PointRate is stencil throughput in grid points per second.
	PointRate float64
	// InnerFraction is the fraction of stencil work independent of halo
	// values (overlappable by the nonblocking and decoupled variants).
	InnerFraction float64
	// ScanCostPerRank models the all-to-all implementation of the
	// reference halo exchange (Hoefler et al. [17]): every call walks P
	// send/receive descriptors, zero-byte rounds included. The blocking
	// variant pays it on the critical path; the nonblocking variant's
	// progress engine hides it behind the inner stencil; the decoupled
	// variant replaces the collective entirely.
	ScanCostPerRank sim.Time
	// Cores, when >= 1, runs the solver in the engine's conservative
	// parallel mode with that many workers. Rows are byte-identical for
	// any Cores >= 1, one worker included (a one-shard world is the same
	// trajectory family); Cores == 0 keeps the classic single-engine mode.
	// CG does no file I/O, so placement is unconstrained: the reference
	// variants spread all ranks evenly, the decoupled variant spreads
	// the compute and helper groups each evenly.
	Cores int
	// Seed and Noise drive the imbalance injection.
	Seed  int64
	Noise netmodel.Noise
	// tracer optionally records execution spans; the package's tests set
	// it, since no flag traces this application.
	tracer mpi.Tracer
}

// DefaultConfig returns paper-shaped parameters for the given scale.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:           procs,
		Alpha:           0.0625,
		PointsPerSide:   120,
		Iterations:      30,
		PointRate:       20e6,
		InnerFraction:   0.9,
		ScanCostPerRank: 2500 * sim.Nanosecond,
		Seed:            1,
		Noise:           netmodel.DefaultNoise(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Procs < 2 {
		return fmt.Errorf("cg: need at least 2 procs, got %d", c.Procs)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("cg: alpha %v outside (0,1)", c.Alpha)
	}
	if c.PointsPerSide <= 0 || c.Iterations <= 0 {
		return fmt.Errorf("cg: non-positive grid or iterations")
	}
	if c.PointRate <= 0 || c.InnerFraction <= 0 || c.InnerFraction >= 1 {
		return fmt.Errorf("cg: bad compute parameters")
	}
	if c.Cores < 0 {
		return fmt.Errorf("cg: negative core count %d", c.Cores)
	}
	return nil
}

// Result reports one run's outcome.
type Result struct {
	// Time is the application makespan.
	Time sim.Time
	// Messages is the total point-to-point message count.
	Messages int64
}

// faceBytes is the payload of one subdomain face.
func (c Config) faceBytes() int64 {
	return int64(c.PointsPerSide) * int64(c.PointsPerSide) * 8
}

// iterCompute returns the (inner, boundary) stencil compute durations.
func (c Config) iterCompute() (inner, boundary sim.Time) {
	points := float64(c.PointsPerSide)
	total := sim.FromSeconds(points * points * points / c.PointRate)
	inner = sim.Time(float64(total) * c.InnerFraction)
	return inner, total - inner
}

// decoupledPlace spreads a decoupled run's two groups each evenly over
// cores workers: compute rank i goes to worker i*cores/computes, helper
// j (by index within the helper group) to worker j*cores/helpers. CG
// touches no files, so no pinning constraint applies; spreading both
// groups balances stencil compute and face aggregation alike.
func decoupledPlace(cores, computes, helpers int) func(rank int) int {
	return func(rank int) int {
		if rank < computes {
			return rank * cores / computes
		}
		return (rank - computes) * cores / helpers
	}
}

// worldConfig builds the run's mpi configuration, applying the
// parallel-mode worker count (and, for the decoupled variant, its group
// placement) when Cores is set.
func (c Config) worldConfig(computes, helpers int) mpi.Config {
	mc := mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.tracer}
	if c.Cores >= 1 {
		mc.Shards = c.Cores
		if helpers > 0 {
			mc.Place = decoupledPlace(c.Cores, computes, helpers)
		}
	}
	return mc
}

// Run executes the selected variant and returns its result.
func Run(c Config, v Variant) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	switch v {
	case Blocking, Nonblocking:
		return runReference(c, v == Nonblocking)
	case Decoupled:
		return runDecoupled(c)
	default:
		return Result{}, fmt.Errorf("cg: unknown variant %d", v)
	}
}

const haloTag = 3

// runReference executes the blocking or nonblocking reference.
func runReference(c Config, nonblocking bool) (Result, error) {
	w := mpi.NewWorld(c.worldConfig(c.Procs, 0))
	dims := mpi.BalancedDims(c.Procs, 3)
	inner, boundary := c.iterCompute()
	face := c.faceBytes()
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		cart := mpi.NewCart(world, dims)
		me := world.RankOf(r)
		it := 0
		// Every per-iteration continuation (halo-exchange steps, stencil
		// phases, residual allreduces) is built once here, and the request
		// slice is reused, so steady-state iterations allocate nothing
		// beyond their requests.
		var iter, exch, innerStep, boundStep, residual sim.StepFunc
		var onRecvd func(mpi.Status) sim.StepFunc
		var onHalosDone func([]mpi.Status) sim.StepFunc
		var onDot1 func(mpi.Part) sim.StepFunc
		var onDot2 func(mpi.Part) sim.StepFunc
		reqs := make([]*mpi.Request, 0, 12)
		k := 0
		var exchSrc int
		// Residual aggregation: two global dot products per CG iteration.
		onDot1 = func(mpi.Part) sim.StepFunc {
			return world.FAllreduce(r, mpi.Part{Bytes: 8}, mpi.SumFloat64, nil, onDot2)
		}
		onDot2 = func(mpi.Part) sim.StepFunc { return iter }
		residual = func(_ *sim.Fiber) sim.StepFunc {
			return world.FAllreduce(r, mpi.Part{Bytes: 8}, mpi.SumFloat64, nil, onDot1)
		}
		boundStep = func(_ *sim.Fiber) sim.StepFunc {
			return r.FComputeLabeled(boundary, "stencil-boundary", residual)
		}
		onHalosDone = func([]mpi.Status) sim.StepFunc { return boundStep }
		innerStep = func(_ *sim.Fiber) sim.StepFunc {
			return world.FWaitAll(r, reqs, onHalosDone)
		}
		onRecvd = func(mpi.Status) sim.StepFunc { return exch }
		recvStep := func(_ *sim.Fiber) sim.StepFunc {
			return world.FRecv(r, exchSrc, haloTag, onRecvd)
		}
		exch = func(_ *sim.Fiber) sim.StepFunc {
			if k >= 6 {
				return r.FComputeLabeled(inner, "stencil-inner", boundStep)
			}
			dim := k / 2
			disp := -1 + 2*(k%2) // -1 first, then +1, per dimension
			k++
			src, dst := cart.Shift(me, dim, disp)
			exchSrc = src
			return world.FSend(r, dst, haloTag, face, nil, recvStep)
		}
		iter = func(_ *sim.Fiber) sim.StepFunc {
			if it >= c.Iterations {
				return nil
			}
			it++
			if nonblocking {
				// Post everything, overlap the inner stencil. The
				// all-to-all descriptor scan runs on the collective's
				// progress engine and hides behind the stencil.
				reqs = reqs[:0]
				for dim := 0; dim < 3; dim++ {
					for _, disp := range []int{-1, 1} {
						_, dst := cart.Shift(me, dim, disp)
						reqs = append(reqs, world.Isend(r, dst, haloTag, face, nil))
						reqs = append(reqs, world.Irecv(r, mpi.AnySource, haloTag))
					}
				}
				return r.FComputeLabeled(inner, "stencil-inner", innerStep)
			}
			// Blocking all-to-all halo exchange: the descriptor scan over
			// all P ranks sits on the critical path, and each receive
			// couples this rank to a specific neighbour in dimension order.
			k = 0
			return r.FComputeLabeled(sim.Time(c.Procs)*c.ScanCostPerRank, "alltoall-scan", exch)
		}
		return iter
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Time: w.Makespan(), Messages: w.MessagesSent()}
	w.Release()
	return res, nil
}

// faceMsg is one streamed boundary face.
type faceMsg struct {
	dst  int // destination compute rank (world rank)
	iter int
}

// runDecoupled executes the decoupled variant: compute ranks stream faces
// to helpers; helpers aggregate the six neighbour faces per compute rank
// per iteration and return them in one message.
func runDecoupled(c Config) (Result, error) {
	helpers := int(float64(c.Procs)*c.Alpha + 0.5)
	if helpers < 1 {
		helpers = 1
	}
	computes := c.Procs - helpers
	w := mpi.NewWorld(c.worldConfig(computes, helpers))
	dims := mpi.BalancedDims(computes, 3)
	inner, boundary := c.iterCompute()
	face := c.faceBytes()
	const aggTag = 4
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		role := stream.Producer
		if r.ID() >= computes {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, world, role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, stream.Options{ElementBytes: face})
			finish := func(_ *sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			if role == stream.Producer {
				// Compute ranks occupy world ranks 0..computes-1, so the
				// producer index equals the world rank and the Cartesian
				// topology lives on the producer communicator.
				g0 := ch.ProducerComm()
				cart := mpi.NewCart(g0, dims)
				me := g0.RankOf(r)
				it := 0
				// The per-iteration continuation chain (aggregated
				// receive, boundary stencil, two residual allreduces) is
				// built once, outside the loop.
				var iter, innerStep, boundStep sim.StepFunc
				var onAgg func(mpi.Status) sim.StepFunc
				var onDot1, onDot2 func(mpi.Part) sim.StepFunc
				onDot2 = func(mpi.Part) sim.StepFunc { return iter }
				onDot1 = func(mpi.Part) sim.StepFunc {
					return g0.FAllreduce(r, mpi.Part{Bytes: 8}, mpi.SumFloat64, nil, onDot2)
				}
				boundStep = func(_ *sim.Fiber) sim.StepFunc {
					// Residual aggregation stays within the compute group.
					return g0.FAllreduce(r, mpi.Part{Bytes: 8}, mpi.SumFloat64, nil, onDot1)
				}
				onAgg = func(mpi.Status) sim.StepFunc {
					return r.FComputeLabeled(boundary, "stencil-boundary", boundStep)
				}
				innerStep = func(_ *sim.Fiber) sim.StepFunc {
					// One aggregated message replaces six neighbour
					// receives (the paper's optimization in group G1).
					return world.FRecv(r, mpi.AnySource, aggTag, onAgg)
				}
				iter = func(_ *sim.Fiber) sim.StepFunc {
					if it >= c.Iterations {
						st.Terminate(r)
						return finish
					}
					// Stream my six boundary faces to the helpers that own
					// the destination ranks, then overlap the inner stencil.
					for dim := 0; dim < 3; dim++ {
						for _, disp := range []int{-1, 1} {
							_, dst := cart.Shift(me, dim, disp)
							st.IsendTo(r, stream.Element{
								Bytes: face,
								Data:  faceMsg{dst: dst, iter: it},
							}, ch.HomeConsumer(dst))
						}
					}
					it++
					return r.FComputeLabeled(inner, "stencil-inner", innerStep)
				}
				return iter
			}
			// Helper: collect the six faces addressed to each of my
			// compute ranks per iteration; return them as one message.
			type key struct{ dst, iter int }
			pending := make(map[key]int)
			return st.FOperate(r, func(rr *mpi.Rank, e stream.Element, src int, then sim.StepFunc) sim.StepFunc {
				fm := e.Data.(faceMsg)
				k := key{dst: fm.dst, iter: fm.iter}
				pending[k]++
				if pending[k] == 6 {
					delete(pending, k)
					world.IsendAndFree(rr, fm.dst, aggTag, 6*face, nil)
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
