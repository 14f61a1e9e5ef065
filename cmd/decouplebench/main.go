// Command decouplebench regenerates the paper's evaluation figures
// (Figs. 5-8) and the ablation studies on the simulated runtime.
//
// Usage:
//
//	decouplebench -experiment fig5 -max-procs 8192 -runs 10
//	decouplebench -experiment all -format csv -out results.csv
//	decouplebench -experiment cosched -faults outages=4,outage-len=1s
//	decouplebench -experiment fig8 -json -out fig8.json
//
// Figure 2 and 3 are trace renderings; use cmd/traceviz for those.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
)

// faultsEcho renders the canonical campaign spec as a CSV comment when a
// selected experiment consumed it (Experiment.FaultKeys), so result files
// record the campaign they were measured under (and a round trip through
// -faults reproduces them). resilience and recovery fall back to the
// default campaign on an empty spec; cosched schedules faults only when
// one is given.
func faultsEcho(names []string, spec string) string {
	uses := false
	for _, n := range names {
		e, _ := experiments.Lookup(n)
		if len(e.FaultKeys) > 0 && (spec != "" || n != "cosched") {
			uses = true
		}
	}
	if !uses {
		return ""
	}
	s, err := faults.ParseSpec(spec)
	if err != nil {
		return ""
	}
	return s.String()
}

// benchEntry is one experiment's performance record in the -json report.
type benchEntry struct {
	NsPerOp      int64   `json:"ns_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Rows         int     `json:"rows"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// checkFlags validates what can be validated before any experiment runs,
// so a sweep is never spent on a request that cannot be answered. selected
// are the chosen experiments; set names the flags given on the command
// line: the sweep sizes have defaults, and only an explicit value is held
// to be positive. -cores gives 0 a meaning of its own, so only a negative
// one is refused. A -faults that no selected experiment reads
// (Experiment.FaultKeys), and a -faults key that a selected experiment
// reading -faults does not read, are refused rather than silently dropped.
func checkFlags(selected []experiments.Experiment, set map[string]bool, format string, maxProcs, runs, workers, cores int, faultSpec string) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("-format: unknown format %q, want table or csv", format)
	}
	seen := make(map[string]bool, len(selected))
	for _, e := range selected {
		if seen[e.Name] {
			return fmt.Errorf("-experiment: %s is named twice; its rows would be printed twice and its -json entry once", e.Name)
		}
		seen[e.Name] = true
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"max-procs", maxProcs}, {"runs", runs}, {"workers", workers}} {
		if set[f.name] && f.value <= 0 {
			return fmt.Errorf("-%s: %d is not a positive count", f.name, f.value)
		}
	}
	if cores < 0 {
		return fmt.Errorf("-cores: %d is negative, want 0 (classic mode) or a worker count", cores)
	}
	for _, e := range selected {
		if cores >= 1 && !e.Shardable {
			return fmt.Errorf("-cores: %w", experiments.CoresError(e.Name))
		}
		if set["max-procs"] && maxProcs < experiments.SweepFloor && e.WeakScaling {
			return fmt.Errorf("-max-procs: %d is below %d, where the weak-scaling sweep of %s starts: it would print no rows", maxProcs, experiments.SweepFloor, e.Name)
		}
	}
	if _, err := faults.ParseSpec(faultSpec); err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	for _, e := range selected {
		if err := e.CheckFaultSpec(faultSpec); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if set["faults"] && !slices.ContainsFunc(selected, func(e experiments.Experiment) bool { return len(e.FaultKeys) > 0 }) {
		return fmt.Errorf("-faults: none of the selected experiments reads it")
	}
	return nil
}

// run is the command: it parses args, runs the selected experiments and
// writes the result, returning the exit status (2 for a request refused
// before any experiment started, 1 for a failure afterwards).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decouplebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment to run: "+strings.Join(experiments.Names(), ", ")+", or all")
		maxProcs   = fs.Int("max-procs", 1024, "largest process count in the weak-scaling sweeps (paper: 8192)")
		runs       = fs.Int("runs", 3, "repetitions per data point (paper: 10)")
		workers    = fs.Int("workers", 0, "concurrent sweep points, at least 1 (unset: one per CPU)")
		cores      = fs.Int("cores", 0, "fig5-fig8: run each point's simulation in conservative parallel mode with this many workers (rows byte-identical for any value >= 1; 0: classic single-engine mode; other experiments reject it)")
		faultSpec  = fs.String("faults", "", "fault-campaign spec: comma-separated key=value overrides of the default campaign, e.g. bursts=16,outage-len=1s or crashes=2,restart-cost=100ms; durations use Go syntax; keys: "+strings.Join(faults.SpecKeys(), ", ")+"; \"default\"/empty keeps the base campaign, \"none\" disables it (resilience/recovery: scaled base campaign; cosched: degrade the shared bank's stripes, empty means none); each refuses a key it does not read")
		list       = fs.Bool("list", false, "print the registered experiment names with one-line descriptions and exit")
		format     = fs.String("format", "table", "output format: table or csv")
		out        = fs.String("out", "", "output file (default stdout)")
		quiet      = fs.Bool("quiet", false, "suppress progress logging")
		jsonBench  = fs.Bool("json", false, "emit a machine-readable benchmark report (name -> ns/op, events/sec) instead of figure rows")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: decouplebench takes flags only, and would ignore every flag after it\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, name := range experiments.Names() {
			e, _ := experiments.Lookup(name)
			mark := " "
			if e.Shardable {
				mark = "*" // runs under -cores (conservative parallel mode)
			}
			fmt.Fprintf(stdout, "%s %-22s %s\n", mark, name, e.Description)
		}
		fmt.Fprintln(stdout, "\n* supports -cores (conservative parallel mode)")
		return 0
	}

	names := experiments.Names()
	if *experiment != "all" {
		names = strings.Split(*experiment, ",")
	}
	var selected []experiments.Experiment
	for _, name := range names {
		e, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; available: %s\n",
				name, strings.Join(experiments.Names(), ", "))
			return 2
		}
		selected = append(selected, e)
	}

	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(selected, set, *format, *maxProcs, *runs, *workers, *cores, *faultSpec); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	w := stdout
	var file *os.File
	if *out != "" {
		var err error
		if file, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "-out: %v\n", err)
			return 2
		}
		defer file.Close() // error paths; the success path checks Close below
		w = file
	}

	opts := experiments.Options{
		MaxProcs:  *maxProcs,
		Runs:      *runs,
		Workers:   *workers,
		Cores:     *cores,
		FaultSpec: *faultSpec,
	}
	if !*quiet {
		opts.Log = stderr
	}

	var rows []experiments.Row
	report := make(map[string]benchEntry, len(selected))
	for _, e := range selected {
		// Collect before each experiment so its ns/op does not absorb the
		// marking of the previous experiments' garbage (under the relaxed
		// sweep GC target a cycle can otherwise land mid-experiment and
		// bill whoever runs at the time): per-experiment entries stay
		// comparable across different suite compositions.
		runtime.GC()
		ev0 := sim.GlobalEvents()
		t0 := time.Now()
		r, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		elapsed := time.Since(t0)
		events := sim.GlobalEvents() - ev0
		report[e.Name] = benchEntry{
			NsPerOp:      elapsed.Nanoseconds(),
			Events:       events,
			EventsPerSec: float64(events) / elapsed.Seconds(),
			Rows:         len(r),
		}
		rows = append(rows, r...)
	}

	var err error
	switch {
	case *jsonBench:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(report)
	case *format == "table":
		err = experiments.FormatTable(w, rows)
	default: // csv; checkFlags admitted nothing else
		if echo := faultsEcho(names, *faultSpec); echo != "" {
			_, err = fmt.Fprintf(w, "# faults: %s\n", echo)
		}
		if err == nil {
			err = experiments.FormatCSV(w, rows)
		}
	}
	if err == nil && file != nil {
		err = file.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
