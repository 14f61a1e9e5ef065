// Package mapreduce reproduces the paper's MapReduce word-histogram case
// study (Section IV-B) on the simulated runtime.
//
// Reference implementation (after Hoefler et al. [15], as the paper
// describes): every process maps its share of the log files; when all
// processes complete the map, an Iallgatherv builds the global key set and
// an Ireduce aggregates the dense global histogram vector. Three costs
// grow with P: the allgathered key volume (linear in P), the reduce tree
// depth (log P combine+transfer levels on the critical path), and the
// end-of-map synchronization, which charges the slowest mapper's file-size
// skew and noise to everyone.
//
// Decoupled implementation: map and reduce are split onto two groups
// linked by MPI streams. Mappers stream intermediate (key, count) batches
// as soon as a chunk is mapped; reducers merge arrivals first-come-first-
// served. The reduce group is further decoupled into local reducers plus
// one master that aggregates the global result. Following the paper, no
// data aggregation is applied between reducers and master ("we did not
// apply data aggregation to optimize the data flow within the reduce
// group"), so per-element update traffic congests the master as the scale
// grows — the effect the paper observes at 4,096 and 8,192 processes.
package mapreduce

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Tags used on the world communicator by the decoupled implementation.
const (
	updateTag = 7 // reducer -> master incremental updates
	doneTag   = 8 // reducer -> master end-of-updates marker
)

// Config describes one MapReduce experiment run.
type Config struct {
	// Procs is the total number of processes.
	Procs int
	// Alpha is the fraction of processes dedicated to the decoupled
	// reduce (ignored by RunReference). Paper values: 0.125, 0.0625,
	// 0.03125.
	Alpha float64
	// FilesPerProc scales the workload weakly: total files = Procs *
	// FilesPerProc.
	FilesPerProc int
	// MeanFileBytes is the average log-file size (the paper's corpus
	// averages ~360 MB per process with a 256 MB - 1 GB skew).
	MeanFileBytes int64
	// MapRate is the map throughput in input bytes per second (reading
	// plus tokenizing plus hashing).
	MapRate float64
	// MergeRate is the dense-vector merge throughput of the reference
	// reduce, in bytes per second.
	MergeRate float64
	// StreamMergeRate is the hash-histogram merge throughput of the
	// decoupled reducers, in bytes per second (string-keyed hash merging
	// is slower than dense vector addition).
	StreamMergeRate float64
	// KeyBytesPerProc is the per-process intermediate key-set payload
	// exchanged by the reference Iallgatherv.
	KeyBytesPerProc int64
	// GlobalKeyBytes is the dense global histogram vector the reference
	// Ireduce combines at every tree level.
	GlobalKeyBytes int64
	// EmitRatio is intermediate KV bytes emitted per input byte.
	EmitRatio float64
	// ChunkBytes is the map chunk size; the decoupled mapper emits one
	// stream element per chunk (the granularity S of Eq. 4).
	ChunkBytes int64
	// UpdateBytes is the per-element update record a reducer forwards to
	// the master (unaggregated, per the paper).
	UpdateBytes int64
	// UpdateCost is the master's processing cost per update record.
	UpdateCost sim.Time
	// ImbalanceCoV is the coefficient of variation of per-process input
	// shares, modelling the 256 MB - 1 GB file-size skew of the corpus.
	ImbalanceCoV float64
	// Cores, when >= 1, runs the job in the engine's conservative
	// parallel mode with that many workers. Rows are byte-identical for
	// any Cores >= 1, one worker included (a one-shard world is the same
	// trajectory family); Cores == 0 keeps the classic single-engine mode.
	// MapReduce does no file I/O, so placement is unconstrained: the
	// reference spreads all ranks evenly, the decoupled run spreads the
	// map and reduce groups each evenly.
	Cores int
	// Seed drives all randomness; Noise is the compute noise model.
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
		FilesPerProc:    4,
		MeanFileBytes:   90 << 20,
		MapRate:         50e6,
		MergeRate:       100e6,
		StreamMergeRate: 14e6,
		KeyBytesPerProc: 16 << 20,
		GlobalKeyBytes:  200 << 20,
		EmitRatio:       0.02,
		ChunkBytes:      8 << 20,
		UpdateBytes:     2 << 10,
		UpdateCost:      20 * sim.Microsecond,
		ImbalanceCoV:    0.25,
		Seed:            1,
		Noise:           netmodel.DefaultNoise(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Procs < 2 {
		return fmt.Errorf("mapreduce: need at least 2 procs, got %d", c.Procs)
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		return fmt.Errorf("mapreduce: alpha %v outside [0,1)", c.Alpha)
	}
	if c.FilesPerProc <= 0 || c.MeanFileBytes <= 0 || c.ChunkBytes <= 0 {
		return fmt.Errorf("mapreduce: non-positive workload parameter")
	}
	if c.MapRate <= 0 || c.MergeRate <= 0 || c.StreamMergeRate <= 0 || c.EmitRatio <= 0 {
		return fmt.Errorf("mapreduce: non-positive rate")
	}
	if c.Cores < 0 {
		return fmt.Errorf("mapreduce: negative core count %d", c.Cores)
	}
	return c.corpus().Validate()
}

// decoupledPlace spreads the map and reduce groups each evenly over
// cores workers: mapper i goes to worker i*cores/mappers, reducer j (by
// index within the reduce group) to worker j*cores/reducers. No file
// I/O means no pinning constraint; spreading both groups balances map
// compute and stream merging alike.
func decoupledPlace(cores, mappers, reducers int) func(rank int) int {
	return func(rank int) int {
		if rank < mappers {
			return rank * cores / mappers
		}
		return (rank - mappers) * cores / reducers
	}
}

// worldConfig builds the run's mpi configuration, applying the
// parallel-mode worker count (and, for the decoupled run, its group
// placement) when Cores is set.
func (c Config) worldConfig(mappers, reducers int) mpi.Config {
	mc := mpi.Config{Procs: c.Procs, Seed: c.Seed, Noise: c.Noise, Tracer: c.tracer}
	if c.Cores >= 1 {
		mc.Shards = c.Cores
		if reducers > 0 {
			mc.Place = decoupledPlace(c.Cores, mappers, reducers)
		}
	}
	return mc
}

// Result reports one run's outcome.
type Result struct {
	// Time is the application makespan in virtual time.
	Time sim.Time
	// TotalBytes is the input volume processed.
	TotalBytes int64
	// Messages is the number of point-to-point messages on the network.
	Messages int64
	// Elements is the number of stream elements (decoupled runs only).
	Elements int64
}

// corpus builds the weak-scaled corpus for a config.
func (c Config) corpus() workload.Corpus {
	return workload.DefaultCorpus(c.Procs*c.FilesPerProc, c.MeanFileBytes, c.Seed)
}

// inputShares deals the corpus bytes over n workers with the configured
// per-worker skew (the file-size imbalance of the paper's log corpus).
// The same skew vector applies to the reference and decoupled runs.
func (c Config) inputShares(n int) []int64 {
	// Deal the corpus's realized size, not the nominal mean: the
	// log-uniform file draws make the two differ by several percent at
	// small file counts, and the element accounting (one element per
	// mapped chunk) is checked against the realized total.
	total := c.corpus().TotalBytes()
	factors := workload.Imbalance(n, c.ImbalanceCoV, c.Seed+77)
	var fsum float64
	for _, f := range factors {
		fsum += f
	}
	out := make([]int64, n)
	for i, f := range factors {
		out[i] = int64(float64(total) * f / fsum)
	}
	return out
}

// mapFile charges the map compute for one file in chunk-sized pieces,
// invoking emit (if non-nil; emissions never block) after each chunk with
// the chunk's intermediate KV bytes, then continues with done. The emit
// continuation is hoisted out of the loop, so mapping allocates nothing
// per chunk.
func mapFile(r *mpi.Rank, c Config, bytes int64, emit func(chunkKV int64), done sim.StepFunc) sim.StepFunc {
	off := int64(0)
	chunk := int64(0)
	var loop sim.StepFunc
	emitStep := sim.Then(func() {
		if emit != nil {
			emit(int64(float64(chunk) * c.EmitRatio))
		}
	}, &loop)
	loop = func(_ *sim.Fiber) sim.StepFunc {
		if off >= bytes {
			return done
		}
		chunk = c.ChunkBytes
		if off+chunk > bytes {
			chunk = bytes - off
		}
		off += c.ChunkBytes
		return r.FComputeLabeled(sim.FromSeconds(float64(chunk)/c.MapRate), "map", emitStep)
	}
	return loop
}

// RunReference executes the conventional implementation.
func RunReference(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	corpus := c.corpus()
	w := mpi.NewWorld(c.worldConfig(c.Procs, 0))
	shares := c.inputShares(c.Procs)
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		// Map phase: process my share of the corpus to completion.
		return mapFile(r, c, shares[r.ID()], nil, func(_ *sim.Fiber) sim.StepFunc {
			// Build the global key set (all P processes participate; the
			// gathered volume grows linearly with P).
			return world.FIallgatherv(r, mpi.Part{Bytes: c.KeyBytesPerProc}, func(kr *mpi.CollRequest) sim.StepFunc {
				return world.FWaitColl(r, kr, func(interface{}) sim.StepFunc {
					// Aggregate the dense global histogram (log P combine
					// levels on the critical path, each transferring and
					// merging the vector).
					return world.FIreduce(r, 0, mpi.Part{Bytes: c.GlobalKeyBytes}, mpi.SumInt64,
						mpi.LinearCost(sim.Time(float64(sim.Second)/c.MergeRate)),
						func(rr *mpi.CollRequest) sim.StepFunc {
							return world.FWaitColl(r, rr, func(interface{}) sim.StepFunc { return nil })
						})
				})
			})
		})
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Time: w.Makespan(), TotalBytes: corpus.TotalBytes(), Messages: w.MessagesSent()}
	w.Release()
	return res, nil
}

// RunDecoupled executes the decoupled implementation with the configured
// alpha.
func RunDecoupled(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if c.Alpha <= 0 {
		return Result{}, fmt.Errorf("mapreduce: decoupled run needs alpha > 0")
	}
	corpus := c.corpus()
	reducers := int(float64(c.Procs)*c.Alpha + 0.5)
	if reducers < 1 {
		reducers = 1
	}
	mappers := c.Procs - reducers
	w := mpi.NewWorld(c.worldConfig(mappers, reducers))
	// elems[i] is rank i's stream-element count (consumers only): rank i
	// writes only slot i, so sharded workers never race.
	elems := make([]int64, c.Procs)
	shares := c.inputShares(mappers)
	// masterWorld is the world rank of the reduce group's master: the
	// first consumer rank.
	masterWorld := mappers
	_, err := w.RunFibers(func(r *mpi.Rank, f *sim.Fiber) sim.StepFunc {
		world := r.World()
		role := stream.Producer
		if r.ID() >= mappers {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, world, role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, stream.Options{
				ElementBytes:   int64(float64(c.ChunkBytes) * c.EmitRatio),
				InjectOverhead: 200 * sim.Nanosecond,
			})
			mergeCost := func(bytes int64) sim.Time {
				return sim.FromSeconds(float64(bytes) / c.StreamMergeRate)
			}
			finish := func(_ *sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			switch {
			case role == stream.Producer:
				pi := ch.ProducerIndex(r)
				// Shard chunks over the local reducers (consumer indices
				// 1..C-1; the master at index 0 aggregates only). With a
				// single consumer it does double duty.
				shards := ch.Consumers() - 1
				base := 1
				if shards == 0 {
					shards, base = 1, 0
				}
				chunkSeq := pi // stagger shard assignment across mappers
				return mapFile(r, c, shares[pi], func(kv int64) {
					st.IsendTo(r, stream.Element{Bytes: kv}, base+chunkSeq%shards)
					chunkSeq++
				}, func(_ *sim.Fiber) sim.StepFunc {
					st.Terminate(r)
					return finish
				})
			case ch.ConsumerIndex(r) == 0 && ch.Consumers() > 1:
				// Master: drain the (empty) stream to participate in
				// termination, then aggregate reducer updates until every
				// reducer reports done.
				return st.FOperate(r, func(_ *mpi.Rank, _ stream.Element, _ int, then sim.StepFunc) sim.StepFunc {
					return then
				}, func(stream.Stats) sim.StepFunc {
					var updates, expected int64
					done := 0
					upReq := world.Irecv(r, mpi.AnySource, updateTag)
					doneReq := world.Irecv(r, mpi.AnySource, doneTag)
					reqs := make([]*mpi.Request, 2)
					// The drain loop's continuations are hoisted so the
					// master allocates nothing per aggregated update.
					var drain sim.StepFunc
					var onMsg func(int, mpi.Status) sim.StepFunc
					repost := sim.Then(func() {
						upReq = world.Irecv(r, mpi.AnySource, updateTag)
					}, &drain)
					onMsg = func(idx int, stt mpi.Status) sim.StepFunc {
						if idx == 0 {
							updates++
							return r.FComputeLabeled(c.UpdateCost, "master-update", repost)
						}
						expected += stt.Data.(int64)
						done++
						doneReq = world.Irecv(r, mpi.AnySource, doneTag)
						return drain
					}
					drain = func(_ *sim.Fiber) sim.StepFunc {
						if done >= reducers-1 && updates >= expected {
							return finish
						}
						reqs[0], reqs[1] = upReq, doneReq
						return world.FWaitAny(r, reqs, onMsg)
					}
					return drain
				})
			default:
				// Local reducer: merge arrivals on the fly, forwarding an
				// unaggregated update record to the master per element.
				// The post-merge continuation is hoisted (the operator's
				// `then` is threaded through a captured slot), so reducing
				// allocates nothing per element.
				var myUpdates int64
				var mergeThen sim.StepFunc
				merged := sim.Then(func() {
					if ch.Consumers() > 1 {
						world.IsendAndFree(r, masterWorld, updateTag, c.UpdateBytes, nil)
						myUpdates++
					}
				}, &mergeThen)
				return st.FOperate(r, func(rr *mpi.Rank, e stream.Element, src int, then sim.StepFunc) sim.StepFunc {
					mergeThen = then
					return rr.FComputeLabeled(mergeCost(e.Bytes), "reduce", merged)
				}, func(stats stream.Stats) sim.StepFunc {
					elems[r.ID()] = stats.ElementsReceived
					if ch.Consumers() > 1 {
						return world.FSend(r, masterWorld, doneTag, 8, myUpdates, finish)
					}
					return finish
				})
			}
		})
	})
	if err != nil {
		return Result{}, err
	}
	var elements int64
	for _, e := range elems {
		elements += e
	}
	res := Result{
		Time:       w.Makespan(),
		TotalBytes: corpus.TotalBytes(),
		Messages:   w.MessagesSent(),
		Elements:   elements,
	}
	w.Release()
	return res, nil
}
