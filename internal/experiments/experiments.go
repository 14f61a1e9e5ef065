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
	"slices"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/faults"
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
	// (element bytes, alpha in percent, ...), and the critical group of
	// the model's "Decoupled (Bracket)" rows (0 for Op0, 1 for Op1); 0
	// otherwise.
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
	// and results are bit-identical to a serial sweep. Zero means one
	// worker per CPU.
	Workers int
	// Cores, when >= 1, runs each point's simulation in the engine's
	// conservative parallel mode with that many workers (rows are
	// byte-identical for any Cores >= 1, one worker included; see
	// internal/sim's parallel-mode contract). Zero keeps the classic
	// single-engine mode. The experiments that shard are marked
	// Experiment.Shardable (the weak-scaling figures fig5-fig8);
	// Experiment.Run refuses a Cores >= 1 request for the rest — the
	// co-scheduling sweep, crash recovery, fault campaigns, lossy fabrics,
	// the ablations and the analytic model — with mpi.CannotShardError
	// rather than silently ignoring it.
	Cores int
	// FaultSpec is a fault-campaign spec in faults.ParseSpec syntax,
	// read by the sweeps that list Experiment.FaultKeys; each refuses a
	// spec that sets another key. The resilience experiment scales it
	// across its intensity sweep and the recovery experiment its crash
	// family (empty means the default campaign); the cosched experiment
	// degrades the shared bank's stripes with it when non-empty, and
	// schedules no faults when empty.
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
		o.Workers = runtime.NumCPU()
	}
	return o
}

// SweepFloor is the smallest process count of a weak-scaling sweep (the
// paper's first point). A sweep capped below it has no points at all, so
// the CLI refuses such a cap for the experiments marked WeakScaling.
const SweepFloor = 32

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

// memo computes one value per key, once, however many sweep points ask
// for it from however many pool workers. A sweep whose rows are several
// readings of one simulation (per-job slowdowns and fairness of one
// cluster run, every ratio and the slope of one intensity sweep) puts
// that simulation behind a memo keyed by seed, instead of re-running it
// per row. Values are pure functions of the key, so which worker fills an
// entry never matters.
type memo[K comparable, V any] struct {
	compute func(K) (V, error)
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func newMemo[K comparable, V any](compute func(K) (V, error)) *memo[K, V] {
	return &memo[K, V]{compute: compute, entries: make(map[K]*memoEntry[V])}
}

func (m *memo[K, V]) get(key K) (V, error) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = m.compute(key) })
	return e.v, e.err
}

// read is a derived row's measurement: the value field reads off the
// memoized outcome at the point's seed.
func read[V any](m *memo[int64, V], field func(V) float64) func(seed int64) (float64, error) {
	return func(seed int64) (float64, error) {
		v, err := m.get(seed)
		if err != nil {
			return 0, err
		}
		return field(v), nil
	}
}

// slope is the least-squares slope of y over xs.
func slope(xs []float64, y func(x float64) float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for _, x := range xs {
		sx += x
		sy += y(x)
	}
	xbar, ybar := sx/n, sy/n
	var num, den float64
	for _, x := range xs {
		num += (x - xbar) * (y(x) - ybar)
		den += (x - xbar) * (x - xbar)
	}
	if den == 0 {
		return 0
	}
	return num / den
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

// Experiment is one registered sweep, declared once in the table below:
// everything the CLI, the benchmark harness and the tests need to know
// about it.
type Experiment struct {
	// Name is the -experiment name and the rows' Experiment column.
	Name string
	// Description is the one-line summary -list prints.
	Description string
	// Shardable marks a sweep whose simulations run in the conservative
	// parallel mode when Options.Cores >= 1: the weak-scaling figures
	// (fig5-fig7 spread their rank groups over the workers; fig8's
	// decoupled variant spreads its compute group). Every other sweep runs
	// on one engine — co-scheduling, whose 16-rank worlds are too small
	// for shard windows to pay, or a classic-only feature: crash
	// campaigns, message faults, tracing — and Run refuses Cores >= 1 for
	// it.
	Shardable bool
	// WeakScaling marks a sweep of the process count from SweepFloor up to
	// Options.MaxProcs. The others run at sizes of their own and at most
	// clamp to MaxProcs.
	WeakScaling bool
	// FaultKeys lists the keys of a fault spec (faults.SpecKeys) that the
	// sweep reads from Options.FaultSpec; nil for a sweep that ignores
	// the spec. A spec that sets any other key is refused
	// (CheckFaultSpec), since the sweep would drop it silently.
	FaultKeys []string

	run func(Options) ([]Row, error)
}

// Run runs the sweep. A Cores >= 1 request for a sweep that cannot shard
// fails with CoresError before anything runs, instead of being silently
// ignored or panicking deep inside a sweep; this is the one place that
// refusal is made. The error names the experiment once; callers that
// report errors under the experiment's name add no second one.
func (e Experiment) Run(opts Options) ([]Row, error) {
	if opts.Cores >= 1 && !e.Shardable {
		return nil, CoresError(e.Name)
	}
	if err := e.CheckFaultSpec(opts.FaultSpec); err != nil {
		return nil, err
	}
	return e.run(opts)
}

// CheckFaultSpec refuses a fault spec that sets a key a sweep reading
// Options.FaultSpec does not read, naming the key and the sweep. The CLI
// refuses with it before any sweep starts; Run returns it to library
// callers. "default", "none" and an empty spec set no key.
func (e Experiment) CheckFaultSpec(spec string) error {
	if len(e.FaultKeys) == 0 {
		return nil
	}
	_, keys, err := faults.ParseSpecKeys(spec)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if !slices.Contains(e.FaultKeys, k) {
			return fmt.Errorf("the %s experiment does not read key %s; it reads %s", e.Name, k, strings.Join(e.FaultKeys, ", "))
		}
	}
	return nil
}

// CoresError is the uniform parallel-mode rejection of the non-shardable
// experiment name. The CLI refuses with it before any sweep starts;
// Experiment.Run returns it to library callers.
func CoresError(name string) error {
	return &mpi.CannotShardError{Feature: "the " + name + " experiment", Flag: "-cores"}
}

// table declares every experiment, sorted by name.
var table = []Experiment{
	{Name: "ablation-alpha", run: AblationAlpha,
		Description: "decoupled group fraction (alpha) sweep on MapReduce beyond the paper's three values"},
	{Name: "ablation-fcfs", run: AblationFCFS,
		Description: "first-come-first-served against fixed-order consumption behind a straggling producer (consumer idle time)"},
	{Name: "ablation-granularity", run: AblationGranularity,
		Description: "stream element size S sweep on the synthetic application, beside the Eq. 4 prediction"},
	{Name: "cosched", run: Cosched,
		FaultKeys:   []string{"seed", "horizon", "outages", "outage-len", "derate-stripes", "derate-rate"},
		Description: "co-scheduled multi-job contention on a shared bank"},
	{Name: "fig5", run: Fig5, Shardable: true, WeakScaling: true,
		Description: "MapReduce weak scaling: reference against the decoupled variant at three alpha values (paper Fig. 5)"},
	{Name: "fig6", run: Fig6, Shardable: true, WeakScaling: true,
		Description: "CG weak scaling: blocking and non-blocking halo exchange against the decoupled one (paper Fig. 6)"},
	{Name: "fig7", run: Fig7, Shardable: true, WeakScaling: true,
		Description: "iPIC3D particle communication weak scaling: reference against decoupling (paper Fig. 7)"},
	{Name: "fig8", run: Fig8, Shardable: true, WeakScaling: true,
		Description: "iPIC3D particle I/O weak scaling: collective and shared-pointer writes against a decoupled I/O group (paper Fig. 8)"},
	{Name: "lossy", run: Lossy,
		Description: "fabric loss-rate sweep under the reliable-delivery protocol (ack/timeout/backoff/retransmit)"},
	{Name: "model", run: ModelValidation, WeakScaling: true,
		Description: "analytic cost-model validation against simulated makespans"},
	{Name: "recovery", run: Recovery,
		FaultKeys:   []string{"seed", "crashes", "restart-cost"},
		Description: "checkpoint interval x crash intensity sweep with restart/replay (wasted work, recovery overhead)"},
	{Name: "resilience", run: Resilience,
		FaultKeys: []string{"seed", "horizon", "bursts", "burst-len", "burst-factor", "outages", "outage-len",
			"derate-stripes", "derate-rate", "flaps", "flap-len", "lat-factor", "bw-factor"},
		Description: "fault-campaign intensity sweep (bursts, outages, stripe derates, link flaps)"},
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range table {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.Name
	}
	return out
}
