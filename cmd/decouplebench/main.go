// Command decouplebench regenerates the paper's evaluation figures
// (Figs. 5-8) and the ablation studies on the simulated runtime.
//
// Usage:
//
//	decouplebench -experiment fig5 -max-procs 8192 -runs 10
//	decouplebench -experiment all -format csv -out results.csv
//	decouplebench -experiment cosched -jobs 3 -cosched-policy fair-wc
//	decouplebench -experiment fig8 -json -out fig8.json
//
// Figure 2 and 3 are trace renderings; use cmd/traceviz for those.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
)

// faultsEcho renders the canonical campaign spec as a CSV comment when a
// selected experiment consumed it, so result files record the campaign
// they were measured under (and a round trip through -faults reproduces
// them). resilience and recovery fall back to the default campaign on an
// empty spec; cosched schedules faults only when one is given.
func faultsEcho(names []string, spec string) string {
	uses := false
	for _, n := range names {
		if n == "resilience" || n == "recovery" || (n == "cosched" && spec != "") {
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

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: "+strings.Join(experiments.Names(), ", ")+", or all")
		maxProcs   = flag.Int("max-procs", 1024, "largest process count in the weak-scaling sweeps (paper: 8192)")
		runs       = flag.Int("runs", 3, "repetitions per data point (paper: 10)")
		workers    = flag.Int("workers", 0, "concurrent sweep points (0: REPRO_WORKERS or one per CPU)")
		cores      = flag.Int("cores", 0, "fig5-fig8, cosched: run each point's simulation in conservative parallel mode with this many workers (rows byte-identical for any value >= 1; 0: classic single-engine mode; other experiments reject it)")
		jobs       = flag.Int("jobs", 0, "cosched: concurrent jobs per point (0: sweep the built-in set)")
		coschedPol = flag.String("cosched-policy", "", "cosched: inter-job bank policy fcfs, fair, priority, fair-wc or priority-wc (empty: all)")
		faultSpec  = flag.String("faults", "", "fault-campaign spec: comma-separated key=value overrides of the default campaign, e.g. bursts=16,outage-len=1s or crashes=2,restart-cost=100ms; durations use Go syntax; keys: "+strings.Join(faults.SpecKeys(), ", ")+"; \"default\"/empty keeps the base campaign, \"none\" disables it (resilience/recovery: scaled base campaign; cosched: degrade the shared bank's stripes, empty means none)")
		list       = flag.Bool("list", false, "print the registered experiment names with one-line descriptions and exit")
		format     = flag.String("format", "table", "output format: table or csv")
		out        = flag.String("out", "", "output file (default stdout)")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
		jsonBench  = flag.Bool("json", false, "emit a machine-readable benchmark report (name -> ns/op, events/sec) instead of figure rows")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			mark := " "
			if experiments.Shardable[name] {
				mark = "*" // runs under -cores (conservative parallel mode)
			}
			fmt.Printf("%s %-22s %s\n", mark, name, experiments.Descriptions[name])
		}
		fmt.Println("\n* supports -cores (conservative parallel mode)")
		return
	}

	var names []string
	if *experiment == "all" {
		names = experiments.Names()
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			if experiments.Registry[name] == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n",
					name, strings.Join(experiments.Names(), ", "))
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	opts := experiments.Options{
		MaxProcs:      *maxProcs,
		Runs:          *runs,
		Workers:       *workers,
		Cores:         *cores,
		CoschedJobs:   *jobs,
		CoschedPolicy: *coschedPol,
		FaultSpec:     *faultSpec,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	var rows []experiments.Row
	report := make(map[string]benchEntry, len(names))
	for _, name := range names {
		// Collect before each experiment so its ns/op does not absorb the
		// marking of the previous experiments' garbage (under the relaxed
		// sweep GC target a cycle can otherwise land mid-experiment and
		// bill whoever runs at the time): per-experiment entries stay
		// comparable across different suite compositions.
		runtime.GC()
		ev0 := sim.GlobalEvents()
		t0 := time.Now()
		r, err := experiments.Registry[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(t0)
		events := sim.GlobalEvents() - ev0
		report[name] = benchEntry{
			NsPerOp:      elapsed.Nanoseconds(),
			Events:       events,
			EventsPerSec: float64(events) / elapsed.Seconds(),
			Rows:         len(r),
		}
		rows = append(rows, r...)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var err error
	switch {
	case *jsonBench:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(report)
	case *format == "table":
		err = experiments.FormatTable(w, rows)
	case *format == "csv":
		if echo := faultsEcho(names, *faultSpec); echo != "" {
			_, err = fmt.Fprintf(w, "# faults: %s\n", echo)
		}
		if err == nil {
			err = experiments.FormatCSV(w, rows)
		}
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
