// Package experiments regenerates every figure of the paper's evaluation
// (Section IV) plus the ablations called out in DESIGN.md. Each experiment
// returns tabular rows shared by the CLI (cmd/decouplebench) and the
// benchmark harness (bench_test.go).
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"

	"repro/internal/mpi"
)

// Row is one measured point of an experiment series.
type Row struct {
	// Experiment is the experiment id, e.g. "fig5".
	Experiment string
	// Series is the legend entry, e.g. "Decoupling (alpha=6.25%)".
	Series string
	// Procs is the process count (or the swept parameter's value for
	// ablations; see Param).
	Procs int
	// Param carries the swept non-procs parameter for ablations
	// (element bytes, alpha in percent, ...); 0 otherwise.
	Param float64
	// Seconds is the mean execution time over Runs runs.
	Seconds float64
	// StdDev is the sample standard deviation over Runs runs.
	StdDev float64
	// Runs is the number of repetitions.
	Runs int
}

// Options controls experiment scale and repetition.
type Options struct {
	// MaxProcs caps the weak-scaling sweep (paper: 8,192). The default
	// keeps `go test -bench` affordable; the CLI can raise it.
	MaxProcs int
	// Runs is the number of repetitions per point (paper: 10). Seeds
	// vary per run; the mean and standard deviation are reported.
	Runs int
	// Workers is the number of sweep points simulated concurrently. Each
	// simulation owns its engine, so points are embarrassingly parallel
	// and results are bit-identical to a serial sweep. Zero means the
	// REPRO_WORKERS environment variable, or else one worker per CPU.
	Workers int
	// Cores, when >= 1, runs each point's simulation in the engine's
	// conservative parallel mode with that many workers (rows are
	// byte-identical for any Cores >= 1; see internal/sim's parallel-mode
	// contract). Zero keeps the classic single-engine mode. The sharded
	// experiments are listed in Shardable (the weak-scaling figures and
	// the co-scheduling contention sweep); the rest — crash recovery,
	// fault campaigns, lossy fabrics, the ablations and the analytic
	// model — reject a Cores >= 1 request with mpi.CannotShardError
	// rather than silently ignoring it.
	Cores int
	// CoschedJobs restricts the cosched experiment to one concurrent-job
	// count (0: sweep the built-in set).
	CoschedJobs int
	// CoschedPolicy restricts the cosched experiment to one inter-job
	// bank policy — "fcfs", "fair", "priority", "fair-wc" or
	// "priority-wc" (empty: all five).
	CoschedPolicy string
	// FaultSpec is a fault-campaign spec in faults.ParseSpec syntax. The
	// resilience experiment scales it across its intensity sweep (empty
	// means the default campaign); the cosched experiment degrades the
	// shared bank's stripes with it when non-empty, and schedules no
	// faults when empty.
	FaultSpec string
	// Log, if non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxProcs <= 0 {
		o.MaxProcs = 1024
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Workers <= 0 {
		if v, err := strconv.Atoi(os.Getenv("REPRO_WORKERS")); err == nil && v > 0 {
			o.Workers = v
		} else {
			o.Workers = runtime.NumCPU()
		}
	}
	return o
}

// SweepFloor is the smallest process count of a weak-scaling sweep (the
// paper's first point). A sweep capped below it has no points at all, so
// the CLI refuses such a cap for the experiments in WeakScaling.
const SweepFloor = 32

// WeakScaling marks the experiments that sweep the process count from
// SweepFloor up to Options.MaxProcs. The others run at sizes of their own
// and at most clamp to MaxProcs.
var WeakScaling = map[string]bool{
	"fig5":  true,
	"fig6":  true,
	"fig7":  true,
	"fig8":  true,
	"model": true,
}

// sweep returns the paper's process counts up to max: 32, 64, ..., max.
func sweep(max int) []int {
	var out []int
	for p := SweepFloor; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}

// logf writes progress if a log sink is configured.
func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// point is one sweep point: a row template (Experiment, Series, Procs,
// Param) plus the simulation to measure at each seed. Every point of an
// experiment runs independently — one engine, one world per (point, seed)
// — so a sweep parallelizes without changing any result.
type point struct {
	row Row
	fn  func(seed int64) (float64, error)
}

// runPoints measures every point over opts.Runs seeds (seed = run+1, as
// the serial sweep always used) across a pool of opts.Workers goroutines,
// and aggregates mean and sample standard deviation per point. Rows come
// back in point order and every sample lands in its (point, run) slot, so
// the output is bit-identical regardless of worker count or scheduling.
// The first error in (point, run) order is returned, matching the serial
// sweep's first-encountered error.
func runPoints(opts Options, points []point) ([]Row, error) {
	// The sweep trades memory for fewer GC cycles: simulation backlogs
	// keep a large live heap, and the default target (GOGC=100) re-marks
	// it constantly. Restored on return.
	prevGC := debug.SetGCPercent(gcPercent())
	defer debug.SetGCPercent(prevGC)
	if opts.Workers == 1 {
		// A single worker keeps the seed's behavior of pinning the Go
		// runtime to one core: the simulator is inherently serial, and
		// cross-core handoffs only add scheduler overhead.
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
	}

	type slot struct{ pi, run int }
	samples := make([][]float64, len(points))
	errs := make([][]error, len(points))
	for i := range points {
		samples[i] = make([]float64, opts.Runs)
		errs[i] = make([]error, opts.Runs)
	}
	jobs := make(chan slot)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				samples[s.pi][s.run], errs[s.pi][s.run] = points[s.pi].fn(int64(s.run + 1))
			}
		}()
	}
	for pi, p := range points {
		opts.logf("%s: %s procs=%d param=%g", p.row.Experiment, p.row.Series, p.row.Procs, p.row.Param)
		for run := 0; run < opts.Runs; run++ {
			jobs <- slot{pi, run}
		}
	}
	close(jobs)
	wg.Wait()

	rows := make([]Row, len(points))
	var firstErr error
	for pi, p := range points {
		for _, err := range errs[pi] {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		mean, sd := aggregate(samples[pi])
		row := p.row
		row.Seconds, row.StdDev, row.Runs = mean, sd, opts.Runs
		rows[pi] = row
	}
	return rows, firstErr
}

// gcPercent reports the GC target used while sweeps run: REPRO_GOGC if
// set, else 1000. Simulation working sets are bounded by in-flight
// messages, so a high target mostly stops the collector from re-marking
// the backlog; lower REPRO_GOGC for memory-constrained full-scale runs.
func gcPercent() int {
	if v, err := strconv.Atoi(os.Getenv("REPRO_GOGC")); err == nil && v > 0 {
		return v
	}
	return 1000
}

// aggregate returns the mean and sample standard deviation of samples.
func aggregate(samples []float64) (mean, stddev float64) {
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean = sum / float64(len(samples))
	var ss float64
	for _, s := range samples {
		ss += (s - mean) * (s - mean)
	}
	if len(samples) > 1 {
		stddev = math.Sqrt(ss / float64(len(samples)-1))
	}
	return mean, stddev
}

// FormatTable renders rows as an aligned table grouped by experiment and
// series.
func FormatTable(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tseries\tprocs\tparam\tseconds\tstddev\truns")
	for _, r := range rows {
		param := ""
		if r.Param != 0 {
			param = fmt.Sprintf("%g", r.Param)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.3f\t%.3f\t%d\n",
			r.Experiment, r.Series, r.Procs, param, r.Seconds, r.StdDev, r.Runs)
	}
	return tw.Flush()
}

// FormatCSV renders rows as CSV.
func FormatCSV(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintln(w, "experiment,series,procs,param,seconds,stddev,runs"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%g,%.6f,%.6f,%d\n",
			r.Experiment, r.Series, r.Procs, r.Param, r.Seconds, r.StdDev, r.Runs); err != nil {
			return err
		}
	}
	return nil
}

// Shardable marks the experiments whose simulations run in the
// conservative parallel mode when Options.Cores >= 1: the weak-scaling
// figures (fig5-fig7 spread their rank groups over the workers; fig8's
// decoupled variant spreads its compute group) and the co-scheduling
// contention sweep (whose jobs share a window-safe bank across the
// workers). Every other experiment depends on a classic-only feature —
// crash campaigns, message faults, tracing, or a single-engine
// co-scheduling baseline — and rejects Cores >= 1 with
// mpi.CannotShardError. Keep in sync with Registry.
var Shardable = map[string]bool{
	"fig5":    true,
	"fig6":    true,
	"fig7":    true,
	"fig8":    true,
	"cosched": true,
}

// CoresError is the uniform parallel-mode rejection of the non-shardable
// experiment name. The CLI refuses with it before any sweep starts; the
// runners in Registry return it to library callers.
func CoresError(name string) error {
	return &mpi.CannotShardError{Feature: "the " + name + " experiment", Flag: "-cores"}
}

// rejectCores wraps a non-shardable experiment's runner with CoresError,
// so a Cores request fails loudly up front instead of being silently
// ignored (or panicking deep inside a sweep). The error names the
// experiment once; callers that report errors under the experiment's name
// add no second one.
func rejectCores(name string, fn func(Options) ([]Row, error)) func(Options) ([]Row, error) {
	return func(opts Options) ([]Row, error) {
		if opts.Cores >= 1 {
			return nil, CoresError(name)
		}
		return fn(opts)
	}
}

// Registry maps experiment names to their runners, for the CLI.
var Registry = map[string]func(Options) ([]Row, error){
	"fig5":                 Fig5,
	"fig6":                 Fig6,
	"fig7":                 Fig7,
	"fig8":                 Fig8,
	"ablation-granularity": rejectCores("ablation-granularity", AblationGranularity),
	"ablation-alpha":       rejectCores("ablation-alpha", AblationAlpha),
	"ablation-fcfs":        rejectCores("ablation-fcfs", AblationFCFS),
	"cosched":              Cosched,
	"model":                rejectCores("model", ModelValidation),
	"recovery":             rejectCores("recovery", Recovery),
	"resilience":           rejectCores("resilience", Resilience),
	"lossy":                rejectCores("lossy", Lossy),
}

// Descriptions gives every registered experiment a one-line summary,
// for the CLI's -list output. Keep in sync with Registry.
var Descriptions = map[string]string{
	"fig5":                 "MapReduce weak scaling: reference against the decoupled variant at three alpha values (paper Fig. 5)",
	"fig6":                 "CG weak scaling: blocking and non-blocking halo exchange against the decoupled one (paper Fig. 6)",
	"fig7":                 "iPIC3D particle communication weak scaling: reference against decoupling (paper Fig. 7)",
	"fig8":                 "iPIC3D particle I/O weak scaling: collective and shared-pointer writes against a decoupled I/O group (paper Fig. 8)",
	"ablation-granularity": "stream element size S sweep on the synthetic application, beside the Eq. 4 prediction",
	"ablation-alpha":       "decoupled group fraction (alpha) sweep on MapReduce beyond the paper's three values",
	"ablation-fcfs":        "first-come-first-served against fixed-order consumption behind a straggling producer (consumer idle time)",
	"cosched":              "co-scheduled multi-job contention on a shared bank",
	"model":                "analytic cost-model validation against simulated makespans",
	"recovery":             "checkpoint interval x crash intensity sweep with restart/replay (wasted work, recovery overhead)",
	"resilience":           "fault-campaign intensity sweep (bursts, outages, stripe derates, link flaps)",
	"lossy":                "fabric loss-rate sweep under the reliable-delivery protocol (ack/timeout/backoff/retransmit)",
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for name := range Registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
