// Package netmodel defines the cost models used by the simulated MPI
// runtime: a LogGP-style network parameterization, a striped-file-system
// parameterization, and injectable compute-noise models that stand in for
// the system noise and process imbalance of a production machine.
package netmodel

import (
	"fmt"

	"repro/internal/sim"
)

// Params is a LogGP-style point-to-point cost model.
//
// A message of n bytes sent from A to B costs:
//
//	sender CPU:   SendOverhead
//	sender NIC:   serialized slot of MessageGap + n/Bandwidth
//	wire:         Latency
//	receiver NIC: serialized slot of MessageGap + n/Bandwidth
//	receiver CPU: RecvOverhead (paid by the receiving process)
//
// Endpoint NIC serialization is what produces congestion at hot receivers
// (for example, the master process of a large reduce group), which the
// paper identifies as the reason decoupled MapReduce slows again at 4,096+
// processes.
type Params struct {
	// SendOverhead is the CPU time the sender spends initiating a message.
	SendOverhead sim.Time
	// RecvOverhead is the CPU time the receiver spends completing a message.
	RecvOverhead sim.Time
	// Latency is the end-to-end wire latency.
	Latency sim.Time
	// MessageGap is the fixed per-message occupancy of a NIC, independent
	// of size (the LogGP "g").
	MessageGap sim.Time
	// BytesPerSecond is the per-NIC injection bandwidth (the inverse of
	// the LogGP "G").
	BytesPerSecond float64
}

// SerializationTime is the NIC occupancy of an n-byte message: the
// per-message gap plus the size-proportional term.
func (p Params) SerializationTime(bytes int64) sim.Time {
	if bytes < 0 {
		panic("netmodel: negative message size")
	}
	return p.MessageGap + sim.Time(float64(bytes)/p.BytesPerSecond*float64(sim.Second))
}

// AriesLike returns parameters shaped like a Cray Aries dragonfly NIC:
// microsecond-scale latency and ~10 GB/s injection bandwidth. The absolute
// values are representative, not calibrated; experiments depend on ratios
// and scaling, not on matching the testbed's absolute seconds.
func AriesLike() Params {
	return Params{
		SendOverhead:   300 * sim.Nanosecond,
		RecvOverhead:   300 * sim.Nanosecond,
		Latency:        1500 * sim.Nanosecond,
		MessageGap:     50 * sim.Nanosecond,
		BytesPerSecond: 10e9,
	}
}

// FSParams parameterizes the striped parallel file system model.
//
// Independent writes pay PerOpLatency then occupy one stripe for
// size/StripeBandwidth. Shared-file-pointer writes additionally serialize
// on a global token whose hand-off costs SharedPointerLatency, modelling
// the consistency-semantics cost the paper attributes to
// MPI_File_write_shared.
type FSParams struct {
	// Stripes is the number of independent storage targets.
	Stripes int
	// StripeBandwidth is the bandwidth of one stripe in bytes per second.
	StripeBandwidth float64
	// PerOpLatency is the fixed cost of each write operation.
	PerOpLatency sim.Time
	// SharedPointerLatency is the token hand-off cost for shared-pointer
	// writes (lock traffic and pointer update).
	SharedPointerLatency sim.Time
	// CollInterleaveFactor inflates the stripe occupancy of collective
	// (two-phase) writes: aggregators write per-rank interleaved regions,
	// which defeats stripe sequentiality. 0 means 1 (no penalty); large
	// private buffered writes (the decoupled I/O group's pattern) are
	// unaffected.
	CollInterleaveFactor float64
}

// CollWriteTime is the stripe occupancy of an n-byte collective write,
// including the interleave penalty.
func (f FSParams) CollWriteTime(bytes int64) sim.Time {
	t := f.WriteTime(bytes)
	if f.CollInterleaveFactor > 1 {
		t = sim.Time(float64(t) * f.CollInterleaveFactor)
	}
	return t
}

// Validate reports whether the parameters are usable.
func (f FSParams) Validate() error {
	if f.Stripes <= 0 {
		return fmt.Errorf("netmodel: Stripes must be positive, got %d", f.Stripes)
	}
	if f.StripeBandwidth <= 0 {
		return fmt.Errorf("netmodel: StripeBandwidth must be positive")
	}
	if f.PerOpLatency < 0 || f.SharedPointerLatency < 0 {
		return fmt.Errorf("netmodel: negative time parameter")
	}
	return nil
}

// WriteTime is the stripe occupancy of an n-byte write.
func (f FSParams) WriteTime(bytes int64) sim.Time {
	if bytes < 0 {
		panic("netmodel: negative write size")
	}
	return sim.Time(float64(bytes) / f.StripeBandwidth * float64(sim.Second))
}

// LustreLike returns file-system parameters shaped like a mid-size Lustre
// installation: tens of stripes at ~1 GB/s each with millisecond-scale
// operation latency.
func LustreLike() FSParams {
	return FSParams{
		Stripes:              16,
		StripeBandwidth:      1e9,
		PerOpLatency:         500 * sim.Microsecond,
		SharedPointerLatency: 1200 * sim.Microsecond,
		CollInterleaveFactor: 4,
	}
}
