// Command bench is the repository's benchmark: five workloads of
// cmd/decouplebench timed as child processes, output checks on their rows,
// and, in a traced run, one pass that attributes a workload to its
// experiments plus the out-of-process per-layer drivers of bench/layers.
//
// The benchmark's driver runs, from the root of a checkout,
//
//	go run -C bench repro/bench --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. Without --workload the command
// measures every workload both ways and prints one report; -aa does that
// twice and checks the two against the benchmark's own bounds. README.md has
// the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// result is the line the benchmark's driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps the not-a-numbers a failed run leaves behind to zero, which
// JSON can carry; such a run already reports failed operations.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (r *run) result(traced bool) result {
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer(), r.layer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = resultValue{finite(values[d.Name]), d.Unit}
	}
	return res
}

// num prints counts with all their digits and measurements with six.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// printRun prints a workload's metrics by name with unit, direction and
// bound, and what failed.
func printRun(r *run) {
	if r.e2e != nil {
		walls := r.walls()
		q1, q3 := quartiles(walls)
		for _, d := range endToEnd {
			fmt.Printf("%-9s %-30s %14s %-5s %-6s bound %2.0f%%", r.w.name, d.Name, num(r.e2e[d.Name]), d.Unit, d.Better, d.Bound*100)
			switch d.Name {
			case "wall_s":
				fmt.Printf("  q1 %.4f median %.4f q3 %.4f n %d", q1, median(walls), q3, len(walls))
			case "setup_s":
				fmt.Printf("  median %.4f n %d", median(r.setup), len(r.setup))
			}
			fmt.Println()
		}
	}
	if r.layer != nil {
		for _, d := range perLayer() {
			if strings.HasPrefix(d.Name, "sim.") {
				break // the drivers do not depend on the workload; printDrivers has them
			}
			if v := r.layer[d.Name]; v != 0 {
				fmt.Printf("%-9s %-30s %14s %-5s %s\n", r.w.name, d.Name, num(v), d.Unit, d.Better)
			}
		}
	}
	fmt.Printf("%-9s %-30s %14d count\n%-9s %-30s %14d count\n", r.w.name, "ops", r.attempted, r.w.name, "failed_ops", r.failed)
	for _, f := range r.failures {
		fmt.Println("FAILED", f)
	}
}

func printDrivers(rep layersReport) {
	fmt.Printf("# sim.TrajectoryVersion %d\n", rep.TrajectoryVersion)
	for _, d := range driverMetrics {
		fmt.Printf("%-9s %-30s %14s %-5s %s\n", "layers", d.Name, num(rep.Metrics[d.Name].Value), d.Unit, d.Better)
	}
}

// report measures every workload both ways, prints it, and returns the runs
// by workload name.
func report(h *harness, seed int64, seconds float64) (map[string]*run, error) {
	// The seed picks which workload goes first in each round.
	ws := append([]workload(nil), workloads...)
	k := int(uint64(seed) % uint64(len(ws)))
	ws = append(ws[k:], ws[:k]...)
	fmt.Print(h.provenance(seed, workloads))
	runs, drivers, err := measure(h, fullSize(options{workloads: ws, seed: seed, seconds: seconds, endToEnd: true, traced: true}))
	if err != nil {
		return nil, err
	}
	by := map[string]*run{}
	for _, r := range runs {
		by[r.w.name] = r
	}
	for _, w := range workloads {
		printRun(by[w.name])
	}
	printDrivers(drivers)
	fig, sh, lg := by["figures"], by["sharded"], by["large"]
	fmt.Printf("summary   sharded.wall_s / figures.wall_s = %.4f (the barrier tax; 1 is free)\n", sh.e2e["wall_s"]/fig.e2e["wall_s"])
	fmt.Printf("summary   engine.events_per_s figures %.4g -> large %.4g (x%.3f from 256 to 1024 procs)\n",
		fig.layer["engine.events_per_s"], lg.layer["engine.events_per_s"], lg.layer["engine.events_per_s"]/fig.layer["engine.events_per_s"])
	return by, nil
}

// exactDriver lists the driver counts two runs of one commit must agree on
// exactly.
func exactDriver(name string) bool {
	return strings.HasSuffix(name, "_allocs") || strings.HasSuffix(name, "_retransmits")
}

// compareAA prints, for two measurements of the same code, each end-to-end
// metric's relative difference against its bound and the counts that must
// repeat exactly, and reports whether everything held.
func compareAA(a, b map[string]*run) bool {
	ok := true
	verdict := func(good bool) string {
		if good {
			return "ok"
		}
		ok = false
		return "EXCEEDED"
	}
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		for _, d := range endToEnd {
			x, y := ra.e2e[d.Name], rb.e2e[d.Name]
			bound := d.Bound
			if d.Name == "sim_speedup" {
				bound = 0 // simulated time: exact between runs of one commit
			}
			diff := math.Abs(y-x) / x
			fmt.Printf("aa %-9s %-30s %12s %12s  %6.2f%% of %2.0f%%  %s\n", w.name, d.Name, num(x), num(y), diff*100, bound*100, verdict(diff <= bound))
		}
		x, y := ra.layer["engine.events"], rb.layer["engine.events"]
		fmt.Printf("aa %-9s %-30s %12s %12s  exact  %s\n", w.name, "engine.events", num(x), num(y), verdict(x == y))
		fmt.Printf("aa %-9s %-30s %12d %12d  zero   %s\n", w.name, "failed_ops", ra.failed, rb.failed, verdict(ra.failed+rb.failed == 0))
	}
	// The drivers do not depend on the workload: any run has their counts.
	ra, rb := a[workloads[0].name], b[workloads[0].name]
	for _, d := range driverMetrics {
		if exactDriver(d.Name) {
			x, y := ra.layer[d.Name], rb.layer[d.Name]
			fmt.Printf("aa %-9s %-30s %12s %12s  exact  %s\n", "layers", d.Name, num(x), num(y), verdict(x == y))
		}
	}
	return ok
}

// fullSize fills in the sizes every measurement but the smoke test uses.
func fullSize(o options) options {
	o.setupSeconds, o.minSetups, o.minTimed, o.scale = setupSeconds, minSetups, minTimed, 1
	return o
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "measure this one workload and print the driver's result line (default: all, as one report)")
	seed := flag.Int64("seed", 1, "seed of the per-layer drivers' input draws and of the report's workload rotation; the CLI's sweeps have no seed flag and always use seeds 1..runs")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed invocations of one workload may take")
	traced := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	aa := flag.Bool("aa", false, "measure everything twice and compare the two against the benchmark's bounds")
	printContract := flag.Bool("contract", false, "print BENCHMARK.json as this program defines it and exit")
	flag.Parse()

	if *printContract {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkContract()); err != nil {
			fatal(err)
		}
		return
	}
	h, err := newHarness()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(h.cli), 0o755); err != nil {
		fatal(err)
	}
	// Spans are written once, when the benchmark ends.
	writeTrace := func() {
		h.tr.end(h.root)
		if err := h.tr.write(filepath.Join(h.dir, "out", "trace.json")); err != nil {
			fatal(err)
		}
	}

	if *name == "" {
		first, err := report(h, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		ok := true
		for _, r := range first {
			ok = ok && r.failed == 0
		}
		if *aa {
			second, err := report(h, *seed, *seconds)
			if err != nil {
				fatal(err)
			}
			ok = compareAA(first, second) && ok
		}
		writeTrace()
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, found := workloadNamed(*name)
	if !found || (*traced != 0 && *traced != 1) || *seconds <= 0 || *aa {
		fatal(fmt.Errorf("need -workload among %s, -trace 0 or 1, positive -seconds, and no -aa", strings.Join(workloadNames(), ", ")))
	}
	fmt.Print(h.provenance(*seed, []workload{w}))
	runs, drivers, err := measure(h, fullSize(options{workloads: []workload{w}, seed: *seed, seconds: *seconds,
		endToEnd: *traced == 0, traced: *traced == 1}))
	if err != nil {
		fatal(err)
	}
	printRun(runs[0])
	if *traced == 1 {
		printDrivers(drivers)
		writeTrace()
	}
	// The result line carries the verdict; a run that measured exits 0.
	line, err := json.Marshal(runs[0].result(*traced == 1))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
