// Package ipic3d reproduces the paper's iPIC3D case studies (Section
// IV-D) on the simulated runtime: the particle-communication experiment
// (Fig. 7, plus the Fig. 2 execution traces) and the particle-I/O
// experiment (Fig. 8).
//
// The physics kernels (Boris mover, deposition, Harris-sheet loading) are
// costed, not computed; the skewed per-process particle loads come from
// workload.ParticleField, which mirrors the GEM magnetic-reconnection
// challenge setup the paper evaluates.
package ipic3d

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes one iPIC3D experiment run.
type Config struct {
	// Procs is the total number of processes.
	Procs int
	// Alpha is the fraction of processes dedicated to the decoupled
	// operation (paper: 6.25%).
	Alpha float64
	// ParticlesPerProc is the mean particle load (the paper's GEM runs
	// use ~2x10^9 particles on 8,192 processes, ~244k per process).
	ParticlesPerProc int64
	// Steps is the number of simulated time steps.
	Steps int
	// MoveRate is mover throughput in particles per second.
	MoveRate float64
	// Mobility is the base fraction of particles exiting a subdomain per
	// step (scaled by the local density gradient).
	Mobility float64
	// PackRate is the throughput of packing/unpacking particle buffers
	// (MPI_Pack of array-of-struct particles), in bytes per second. The
	// reference pays it on both sides of every forwarding round; the
	// decoupled implementation packs once at the source and unpacks once
	// at the destination.
	PackRate float64
	// ParticleBytes is the wire size of one particle record.
	ParticleBytes int64
	// ForwardContinue is the fraction of forwarded particles that must
	// continue to another dimension in the next reference forwarding
	// round (diagonal movers).
	ForwardContinue float64
	// SaveFraction is the fraction of particles written per I/O step
	// (down-sampled output, as production runs do).
	SaveFraction float64
	// BufferSteps is how many steps of arrivals the decoupled I/O group
	// buffers before flushing one large write ("the I/O group ... can
	// dedicate substantial memory for buffering").
	BufferSteps int
	// Cores, when >= 1, runs the I/O (RunIO) and particle-communication
	// (RunCommReference/RunCommDecoupled) experiments in the engine's
	// conservative parallel mode with that many workers. Rows are
	// byte-identical for any Cores >= 1, one worker included (a one-shard
	// world is the same trajectory family); Cores == 0 keeps the classic
	// single-engine mode. The reference I/O variants share one file among
	// all ranks, which pins every rank to one shard (no speedup, by
	// construction); the decoupled I/O variant spreads the compute group
	// across workers; the comm experiments touch no files and spread all
	// groups evenly. Incompatible with Tracer and crash campaigns, like
	// the underlying mpi.Config.Shards. Co-scheduled runs (StartIO)
	// ignore it: every co-scheduled job runs on the cluster's one shared
	// engine.
	Cores int
	// Faults, if non-nil, is a compiled fault campaign (rank slowdown
	// bursts, stripe outage/derate windows, link degradation) injected
	// into the run. An empty injection perturbs nothing: the trajectory
	// is byte-identical to Faults == nil.
	Faults *faults.Injection
	// Seed, Noise and Tracer as elsewhere.
	Seed   int64
	Noise  netmodel.Noise
	Tracer mpi.Tracer
}

// DefaultConfig returns paper-shaped parameters for the given scale.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:            procs,
		Alpha:            0.0625,
		ParticlesPerProc: 244_000,
		Steps:            10,
		MoveRate:         0.5e6,
		Mobility:         0.1,
		PackRate:         50e6,
		ParticleBytes:    64,
		ForwardContinue:  0.2,
		SaveFraction:     0.1,
		BufferSteps:      4,
		Seed:             1,
		Noise:            netmodel.DefaultNoise(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Procs < 2 {
		return fmt.Errorf("ipic3d: need at least 2 procs, got %d", c.Procs)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("ipic3d: alpha %v outside (0,1)", c.Alpha)
	}
	if c.ParticlesPerProc <= 0 || c.Steps <= 0 || c.MoveRate <= 0 || c.ParticleBytes <= 0 {
		return fmt.Errorf("ipic3d: non-positive workload parameter")
	}
	if c.PackRate <= 0 {
		return fmt.Errorf("ipic3d: non-positive pack rate")
	}
	if c.Mobility <= 0 || c.Mobility > 0.5 {
		return fmt.Errorf("ipic3d: mobility %v outside (0,0.5]", c.Mobility)
	}
	if c.ForwardContinue < 0 || c.ForwardContinue >= 1 {
		return fmt.Errorf("ipic3d: forward-continue %v outside [0,1)", c.ForwardContinue)
	}
	if c.SaveFraction <= 0 || c.SaveFraction > 1 {
		return fmt.Errorf("ipic3d: save fraction %v outside (0,1]", c.SaveFraction)
	}
	if c.BufferSteps <= 0 {
		return fmt.Errorf("ipic3d: buffer steps %d", c.BufferSteps)
	}
	if c.Cores < 0 {
		return fmt.Errorf("ipic3d: negative core count %d", c.Cores)
	}
	return nil
}

// Result reports one run's outcome.
type Result struct {
	// Time is the application makespan.
	Time sim.Time
	// Messages is the point-to-point message count.
	Messages int64
	// BytesWritten is the file-system volume (I/O experiments).
	BytesWritten int64
	// IOTail is the span between the last mover finishing and the
	// makespan (I/O experiments): the file-system work left on the
	// critical path once all computation is done. The resilience sweep
	// reports how fault campaigns stretch it.
	IOTail sim.Time
	// ForwardRounds is the total number of reference forwarding rounds
	// executed (communication experiment).
	ForwardRounds int
	// Retransmits is the number of timer-driven re-sends the reliable
	// delivery layer issued (message-fault campaigns; zero otherwise).
	// Messages counts logical sends only, so goodput is
	// Messages/(Messages+Retransmits).
	Retransmits int64
}

// field builds the GEM-shaped particle loading for compute ranks laid out
// on dims. computes is the number of ranks actually holding particles:
// decoupled runs spread the same global particle population over fewer
// ranks, so the per-rank mean grows by Procs/computes.
func (c Config) field(dims [3]int, computes int) workload.ParticleField {
	mean := c.ParticlesPerProc * int64(c.Procs) / int64(computes)
	return workload.DefaultGEM(dims, mean, c.Seed)
}

// moverTime is the compute time to push n particles.
func (c Config) moverTime(n int64) sim.Time {
	return sim.FromSeconds(float64(n) / c.MoveRate)
}

// exitCounts splits a rank's leavers over the six directions: the X and Y
// dimensions carry most of the drift in the GEM setup.
func exitCounts(total int64) [6]int64 {
	weights := [6]int64{22, 22, 18, 18, 10, 10} // -x +x -y +y -z +z (per cent)
	var out [6]int64
	var used int64
	for d := 0; d < 5; d++ {
		out[d] = total * weights[d] / 100
		used += out[d]
	}
	out[5] = total - used
	return out
}

func dims3(n int) [3]int {
	d := mpi.BalancedDims(n, 3)
	return [3]int{d[0], d[1], d[2]}
}
