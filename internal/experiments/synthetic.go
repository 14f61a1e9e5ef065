package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps/mapreduce"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// SyntheticConfig describes the two-operation application of the paper's
// performance model (Section II-D): Op0 is computation distributed over
// the producer group; Op1 processes a data flow of D bytes and is either
// coupled (conventional, every process runs both) or decoupled onto an
// alpha fraction of processes.
type SyntheticConfig struct {
	// Procs is the total number of processes.
	Procs int
	// Alpha is the decoupled group fraction.
	Alpha float64
	// W0 is Op0's per-process compute time in the conventional model.
	W0 sim.Time
	// D is the total volume flowing into Op1, in bytes.
	D int64
	// S is the stream element granularity in bytes (Eq. 4's S).
	S int64
	// Op1Rate is Op1's processing throughput in bytes per second; the
	// conventional per-process time TW1 is (D/Procs)/Op1Rate.
	Op1Rate float64
	// DecoupledRateGain is how much faster the dedicated group processes
	// Op1 (batching and application-specific optimization — the paper's
	// T'W1 << TW1). 1 means no optimization.
	DecoupledRateGain float64
	// Overhead is the per-element injection overhead (Eq. 4's o).
	Overhead sim.Time
	// ImbalanceCoV spreads W0 across processes.
	ImbalanceCoV float64
	// Seed, Noise and Tracer as elsewhere.
	Seed   int64
	Noise  netmodel.Noise
	Tracer mpi.Tracer
}

// DefaultSynthetic returns a balanced configuration for the given scale.
func DefaultSynthetic(procs int) SyntheticConfig {
	return SyntheticConfig{
		Procs:             procs,
		Alpha:             0.125,
		W0:                2 * sim.Second,
		D:                 int64(procs) * (8 << 20),
		S:                 64 << 10,
		Op1Rate:           10e6,
		DecoupledRateGain: 2,
		Overhead:          500 * sim.Nanosecond,
		ImbalanceCoV:      0.15,
		Seed:              1,
		Noise:             netmodel.Noise{},
	}
}

// Validate reports whether the configuration is runnable.
func (c SyntheticConfig) Validate() error {
	if c.Procs < 2 || c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("experiments: bad synthetic group setup (procs=%d alpha=%v)", c.Procs, c.Alpha)
	}
	if c.W0 <= 0 || c.D <= 0 || c.S <= 0 || c.Op1Rate <= 0 {
		return fmt.Errorf("experiments: non-positive synthetic workload")
	}
	if c.DecoupledRateGain < 1 {
		return fmt.Errorf("experiments: DecoupledRateGain %v below 1", c.DecoupledRateGain)
	}
	return nil
}

// tw1 is the conventional per-process Op1 time.
func (c SyntheticConfig) tw1() sim.Time {
	return sim.FromSeconds(float64(c.D) / float64(c.Procs) / c.Op1Rate)
}

// ModelParams translates the configuration into the analytic model's
// parameters, for prediction-vs-measurement comparison.
func (c SyntheticConfig) ModelParams() model.Params {
	tw1 := c.tw1()
	// Expected imbalance: the extreme-value estimate of max-minus-mean
	// over Procs draws with the configured coefficient of variation.
	sigma := float64(c.W0) * c.ImbalanceCoV * math.Sqrt(2*math.Log(float64(c.Procs)))
	return model.Params{
		TW0:    c.W0,
		TW1:    tw1,
		TSigma: sim.Time(sigma),
		Alpha:  c.Alpha,
		D:      c.D,
		S:      c.S,
		DecoupledTW1: func(alpha float64) sim.Time {
			return sim.Time(float64(tw1) / c.DecoupledRateGain)
		},
		Overhead: c.Overhead,
	}
}

// RunSyntheticConventional executes the coupled model: every process
// computes its (imbalanced) share of Op0, synchronizes, then processes its
// share of Op1's data.
func RunSyntheticConventional(c SyntheticConfig) (sim.Time, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	factors := workload.Imbalance(c.Procs, c.ImbalanceCoV, c.Seed+5)
	w := mpi.NewWorld(mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.Tracer})
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		return r.FComputeLabeled(sim.Time(float64(c.W0)*factors[r.ID()]), "op0", func(_ *sim.Fiber) sim.StepFunc {
			// Stage boundary: data exchange and synchronization happen at
			// the completion of the operation (Section II-A).
			return world.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
				return r.FComputeLabeled(c.tw1(), "op1", func(_ *sim.Fiber) sim.StepFunc {
					return world.FBarrier(r, nil)
				})
			})
		})
	})
	if err != nil {
		return 0, err
	}
	defer w.Release()
	return w.Makespan(), nil
}

// RunSyntheticDecoupled executes the decoupled model: producers compute
// Op0 (proportionally more work on fewer processes) and inject S-byte
// stream elements throughout; consumers apply Op1 to elements first-come-
// first-served.
func RunSyntheticDecoupled(c SyntheticConfig) (sim.Time, error) {
	return runSyntheticStream(c, stream.Options{ElementBytes: c.S, InjectOverhead: c.Overhead}, 1, nil)
}

// runSyntheticStream is the decoupled model's one body, with the streams
// attached under so. straggle multiplies the first producer's share of
// Op0, and onStats, if non-nil, receives every consumer's final
// statistics. It returns the makespan.
func runSyntheticStream(c SyntheticConfig, so stream.Options, straggle float64, onStats func(stream.Stats)) (sim.Time, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	consumers := int(float64(c.Procs)*c.Alpha + 0.5)
	if consumers < 1 {
		consumers = 1
	}
	producers := c.Procs - consumers
	factors := workload.Imbalance(producers, c.ImbalanceCoV, c.Seed+5)
	factors[0] *= straggle
	w := mpi.NewWorld(mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.Tracer})
	perProducer := c.D / int64(producers)
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		role := stream.Producer
		if r.ID() >= producers {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, world, role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, so)
			finish := func(_ *sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			if role == stream.Producer {
				// Op0 grows by P/(P - alpha P) on the remaining processes.
				myW0 := sim.Time(float64(c.W0) * factors[r.ID()] * float64(c.Procs) / float64(producers))
				elements := perProducer / c.S
				if elements < 1 {
					elements = 1
				}
				return syntheticProducer(r, st, myW0, elements, c.S, finish)
			}
			rate := c.Op1Rate * c.DecoupledRateGain
			return st.FOperate(r, func(rr *mpi.Rank, e stream.Element, src int, then sim.StepFunc) sim.StepFunc {
				return rr.FComputeLabeled(sim.FromSeconds(float64(e.Bytes)/rate), "op1", then)
			}, func(stats stream.Stats) sim.StepFunc {
				if onStats != nil {
					onStats(stats)
				}
				return finish
			})
		})
	})
	if err != nil {
		return 0, err
	}
	defer w.Release()
	return w.Makespan(), nil
}

// syntheticProducer returns the producer-side step: compute a slice of
// Op0, inject one element, repeat; then terminate the stream. The inject
// continuation is hoisted out of the loop (sim.Then), so the steady-state
// producer allocates nothing per element.
func syntheticProducer(r *mpi.Rank, st *stream.Stream, myW0 sim.Time, elements int64, elemBytes int64, done sim.StepFunc) sim.StepFunc {
	slice := myW0 / sim.Time(elements)
	e := int64(0)
	var loop sim.StepFunc
	inject := sim.Then(func() { st.Isend(r, stream.Element{Bytes: elemBytes}) }, &loop)
	loop = func(_ *sim.Fiber) sim.StepFunc {
		if e >= elements {
			st.Terminate(r)
			return done
		}
		e++
		return r.FComputeLabeled(slice, "op0", inject)
	}
	return loop
}

// AblationGranularity sweeps the stream element size S on the synthetic
// application, exposing Eq. 4's pipelining-versus-overhead trade-off
// (design choice 1 in DESIGN.md). Param carries S in bytes. Neither
// prediction models the one-element pipeline fill, which grows with S and
// dominates their error from S = 1 MiB on.
func AblationGranularity(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	procs := 64
	sizes := []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	var points []point
	for _, s := range sizes {
		points = append(points, point{
			row: Row{Experiment: "ablation-granularity", Series: "Decoupling",
				Procs: procs, Param: float64(s)},
			fn: func(seed int64) (float64, error) {
				c := DefaultSynthetic(procs)
				c.Seed = seed
				c.S = s
				c.Overhead = 20 * sim.Microsecond // pronounced per-element cost
				t, err := RunSyntheticDecoupled(c)
				return t.Seconds(), err
			},
		})
	}
	measured, err := runPoints(opts, points)
	// Interleave each measured point with its analytic predictions: Eq. 4
	// and model.Bracket, which names Op1 critical at every S here.
	var rows []Row
	for i, s := range sizes {
		c := DefaultSynthetic(procs)
		c.S = s
		c.Overhead = 20 * sim.Microsecond
		params := c.ModelParams()
		bracket, _ := model.Bracket(params)
		rows = append(rows, measured[i],
			Row{Experiment: "ablation-granularity", Series: "Eq4 prediction",
				Procs: procs, Param: float64(s), Seconds: model.Decoupled(params).Seconds(), Runs: 1},
			Row{Experiment: "ablation-granularity", Series: "Bracket prediction",
				Procs: procs, Param: float64(s), Seconds: bracket.Seconds(), Runs: 1})
	}
	return rows, err
}

// AblationAlpha sweeps the decoupled group fraction on the MapReduce
// application beyond the paper's three values (design choice 2). Param
// carries alpha in percent.
func AblationAlpha(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	procs := 256
	if procs > opts.MaxProcs {
		procs = opts.MaxProcs
	}
	var points []point
	for _, alpha := range []float64{0.015625, 0.03125, 0.0625, 0.125, 0.25} {
		points = append(points, point{
			row: Row{Experiment: "ablation-alpha", Series: "Decoupling",
				Procs: procs, Param: alpha * 100},
			fn: func(seed int64) (float64, error) {
				c := mapreduce.DefaultConfig(procs)
				c.Seed = seed
				c.Alpha = alpha
				res, err := mapreduce.RunDecoupled(c)
				return res.Time.Seconds(), err
			},
		})
	}
	return runPoints(opts, points)
}

// AblationFCFS compares first-come-first-served consumption against
// fixed-order consumption on the synthetic application with a straggling
// producer (design choice 3: the absorption mechanism itself). The metric
// is the consumer's idle time: with FCFS the consumer processes whatever
// has arrived while the straggler trickles; in fixed order it stalls on
// the straggler with work queued. The makespan is bounded by the
// straggler either way — absorption buys consumer utilization, which is
// what lets a real decoupled group take on extra optimization work.
func AblationFCFS(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	procs := 64
	var points []point
	for _, fixed := range []bool{false, true} {
		series := "FCFS"
		if fixed {
			series = "Fixed order"
		}
		points = append(points, point{
			row: Row{Experiment: "ablation-fcfs", Series: series + " (consumer idle)",
				Procs: procs},
			fn: func(seed int64) (float64, error) {
				c := DefaultSynthetic(procs)
				c.Seed = seed
				c.ImbalanceCoV = 0.3
				// Slow consumers: processing is comparable to the arrival
				// rate, so the queueing discipline matters.
				c.Op1Rate = 0.5e6
				// The first producer straggles with four times its share.
				var maxWait sim.Time
				_, err := runSyntheticStream(c, stream.Options{
					ElementBytes:   c.S,
					InjectOverhead: c.Overhead,
					FixedOrder:     fixed,
				}, 4, func(stats stream.Stats) {
					if stats.WaitTime > maxWait {
						maxWait = stats.WaitTime
					}
				})
				return maxWait.Seconds(), err
			},
		})
	}
	return runPoints(opts, points)
}

// ModelValidation compares the predictions of Eq. 1, Eq. 4 and
// model.Bracket (whose critical group its rows carry in Param) against
// simulator measurements of the synthetic application across scales.
func ModelValidation(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	max := opts.MaxProcs
	if max > 512 {
		max = 512
	}
	procs := sweep(max)
	var points []point
	for _, p := range procs {
		points = append(points, point{
			row: Row{Experiment: "model", Series: "Conventional (measured)", Procs: p},
			fn: func(seed int64) (float64, error) {
				c := DefaultSynthetic(p)
				c.Seed = seed
				t, err := RunSyntheticConventional(c)
				return t.Seconds(), err
			},
		})
		points = append(points, point{
			row: Row{Experiment: "model", Series: "Decoupled (measured)", Procs: p},
			fn: func(seed int64) (float64, error) {
				c := DefaultSynthetic(p)
				c.Seed = seed
				t, err := RunSyntheticDecoupled(c)
				return t.Seconds(), err
			},
		})
	}
	measured, err := runPoints(opts, points)
	var rows []Row
	for i, p := range procs {
		params := DefaultSynthetic(p).ModelParams()
		bracket, critical := model.Bracket(params)
		rows = append(rows,
			measured[2*i],
			Row{Experiment: "model", Series: "Conventional (Eq1)", Procs: p, Seconds: model.Conventional(params).Seconds(), Runs: 1},
			measured[2*i+1],
			Row{Experiment: "model", Series: "Decoupled (Eq4)", Procs: p, Seconds: model.Decoupled(params).Seconds(), Runs: 1},
			Row{Experiment: "model", Series: "Decoupled (Bracket)", Procs: p, Param: float64(critical), Seconds: bracket.Seconds(), Runs: 1},
		)
	}
	return rows, err
}
