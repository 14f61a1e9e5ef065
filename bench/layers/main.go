// Command layers times the public, fiber-form entry points of internal/sim,
// internal/mpi, internal/stream and internal/faults from outside the
// program: one driver per layer boundary, fixed operation counts, no hooks
// inside the simulator. The harness in the parent directory runs it as a
// child process and merges its JSON into the per-layer metrics.
//
// Timings are the median of five repetitions; counts (allocations,
// retransmissions, kilobytes) are the minimum over the repetitions, which
// for a deterministic simulator is the exact figure with any stray runtime
// allocation removed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/sim"
)

// sample is what one repetition of a driver reports.
type sample struct {
	ops     int           // operations the elapsed time covers
	elapsed time.Duration // host time of the timed region only
	// counts are exact side figures keyed by metric name (allocations per
	// operation, retransmissions); nil for most drivers.
	counts map[string]metric
}

// driver is one timed layer boundary. scale shrinks the operation count
// for the smoke tests; seed feeds every random draw of the inputs.
type driver struct {
	name string // metric name of the timing
	unit string // "ns" or "us", per operation
	run  func(seed int64, scale float64) sample
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the child's whole standard output.
type report struct {
	TrajectoryVersion int               `json:"trajectory_version"`
	Metrics           map[string]metric `json:"metrics"`
	// Drivers is the host time each driver took over all its repetitions,
	// in the order they ran, so the harness can draw one span per driver.
	Drivers []driverTime `json:"drivers"`
}

type driverTime struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

func drivers() []driver {
	var ds []driver
	ds = append(ds, simDrivers()...)
	ds = append(ds, mpiDrivers()...)
	ds = append(ds, streamDrivers()...)
	ds = append(ds, faultsDrivers()...)
	return ds
}

// scaled shrinks a full-size operation count, never below one.
func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// reps is how often each driver runs: timings report the median, counts the
// minimum.
const reps = 5

// measure runs every driver reps times.
func measure(seed int64, scale float64) report {
	rep := report{
		TrajectoryVersion: sim.TrajectoryVersion,
		Metrics:           map[string]metric{},
	}
	for _, d := range drivers() {
		perOp := make([]float64, 0, reps)
		counts := map[string]metric{}
		start := time.Now()
		for i := 0; i < reps; i++ {
			runtime.GC() // each repetition starts from a collected heap
			s := d.run(seed, scale)
			perOp = append(perOp, float64(s.elapsed.Nanoseconds())/float64(s.ops))
			for name, c := range s.counts {
				if prev, ok := counts[name]; !ok || c.Value < prev.Value {
					counts[name] = c
				}
			}
		}
		rep.Drivers = append(rep.Drivers, driverTime{d.name, time.Since(start).Seconds()})
		sort.Float64s(perOp)
		v := perOp[len(perOp)/2]
		if d.unit == "us" {
			v /= 1e3
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		for name, c := range counts {
			rep.Metrics[name] = c
		}
	}
	return rep
}

func main() {
	seed := flag.Int64("seed", 1, "seed of every driver's input draws")
	scale := flag.Float64("scale", 1, "fraction of the full operation counts to run (tests use 0.01)")
	flag.Parse()
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "layers: -scale must be positive")
		os.Exit(2)
	}

	// The sweeps these drivers stand in for run under `-workers 1`, which
	// pins the runtime to one core, and under the sweeps' relaxed GC
	// target; match both so a driver's figure transfers to the workload.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(1000)

	enc := json.NewEncoder(os.Stdout)
	must(enc.Encode(measure(*seed, *scale)))
}
