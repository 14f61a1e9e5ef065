package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles of powers = %v, %v", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 4},
		{ID: 2, Parent: 0, Start: 3, End: 6},  // overlaps span 1 for one second
		{ID: 3, Parent: 0, Start: 8, End: 12}, // runs past its parent
		{ID: 4, Parent: 1, Start: 1, End: 2},
	}
	want := []float64{10 - 5 - 2, 3 - 1, 3, 4, 1}
	for i, got := range selfTimes(spans) {
		if !near(got, want[i]) {
			t.Errorf("span %d self time = %v, want %v", i, got, want[i])
		}
	}
}

func fixtureRows(t *testing.T) []row {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "rows.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseRows(data)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSimSpeedupParsers(t *testing.T) {
	rows := fixtureRows(t)
	for _, c := range []struct {
		workload string
		want     float64
	}{
		// fig5 3.1611, fig6 1.0014, fig7 1.1592, fig8 0.9814 at 256 procs;
		// the 128-proc rows must not count.
		{"figures", 1.3775504365766726},
		{"cosched", 4.716081 / 1.897695},
		{"faulted", 4.694419 / 2.144515},
	} {
		w, _ := workloadNamed(c.workload)
		got, err := simSpeedup(w, rows)
		if err != nil || !near(got, c.want) {
			t.Errorf("%s sim_speedup = %v, %v; want %v", c.workload, got, err, c.want)
		}
		for _, cl := range claims(w, rows) {
			if cl.err != nil {
				t.Errorf("%s: %s: %v", c.workload, cl.what, cl.err)
			}
		}
	}
	if s, err := figureSpeedup(rows, "fig5"); err != nil || !near(s, 49.250100/15.579980) {
		t.Errorf("fig5 speed-up = %v, %v", s, err)
	}
	if _, err := figureSpeedup(rows, "fig9"); err == nil {
		t.Error("a figure without rows has a speed-up")
	}
}

func TestClaimsCatchViolations(t *testing.T) {
	rows := fixtureRows(t)
	set := func(series string, param, seconds float64) []row {
		out := append([]row(nil), rows...)
		for i := range out {
			if out[i].series == series && out[i].param == param {
				out[i].seconds = seconds
			}
		}
		return out
	}
	failing := func(w workload, rows []row) int {
		n := 0
		for _, c := range claims(w, rows) {
			if c.err != nil {
				n++
			}
		}
		return n
	}
	figures, _ := workloadNamed("figures")
	cosched, _ := workloadNamed("cosched")
	faulted, _ := workloadNamed("faulted")
	for _, c := range []struct {
		what string
		w    workload
		rows []row
	}{
		{"fig7 decoupled slower than its reference", figures, set("Decoupling", 0, 30)},
		{"fairness above one", cosched, set("fair jobs=3 fairness", 1, 1.2)},
		{"fair-wc tail later than fair's", cosched, set("fair-wc jobs=3 hog-tail", 4, 1.5)},
		{"recovery overhead above a reference", faulted, set("Decoupling recovery-overhead-best", 0, 4.7)},
		{"lossy slope beyond the tolerance", faulted, set("Decoupling degradation-slope", 0, 0.0025)},
	} {
		if failing(c.w, c.rows) == 0 {
			t.Errorf("%s: no claim failed", c.what)
		}
	}
	if _, err := parseRows([]byte("experiment,series,procs,param,seconds\nfig5,Reference,32,0,NaN\n")); err == nil {
		t.Error("NaN seconds parsed")
	}
	if _, err := parseRows([]byte("# only a comment\n")); err == nil {
		t.Error("empty output parsed")
	}
}

// TestContractInSync: BENCHMARK.json at the root is what -contract prints,
// and stays inside the limits its reader enforces.
func TestContractInSync(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `go run -C bench repro/bench -contract`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	c := benchmarkContract()
	for _, w := range c.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q breaks the contract's limits", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
	}
	if len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(c.PerLayer))
	}
}

// TestSourceScan: the harness reaches the program only through its command
// line, and the drivers name nothing the roadmap's second item deletes, so
// a change that removes those symbols still compiles against this
// benchmark, which it may not edit.
func TestSourceScan(t *testing.T) {
	read := func(glob string) map[string]string {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s (%v)", glob, err)
		}
		out := map[string]string{}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(data)
		}
		return out
	}
	for f, src := range read("*.go") {
		if strings.Contains(src, `"repro/internal`) {
			t.Errorf("%s imports an internal package; only bench/layers may", f)
		}
	}
	doomed := []*regexp.Regexp{
		regexp.MustCompile(`SetLegacyWake`),
		regexp.MustCompile(`\bFibers\b`),
		regexp.MustCompile(`\bCores\b`),
		regexp.MustCompile(`REPRO_`),
		regexp.MustCompile(`\.(Send|Recv|Barrier|Wait|WaitAll|WaitAny)\(`), // goroutine-form calls
		regexp.MustCompile(`\.Run\(func`),                                  // goroutine-form World.Run
	}
	for f, src := range read(filepath.Join("layers", "*.go")) {
		for _, re := range doomed {
			if loc := re.FindString(src); loc != "" {
				t.Errorf("%s names %q, which the roadmap schedules for deletion", f, loc)
			}
		}
	}
}

// TestSmoke runs the harness end to end at floor scale: one workload per
// code path (figure sweep with the sharded cross-check, co-scheduling,
// faults), one timed invocation each, the traced pass, and the drivers at
// one percent of their operation counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	h.cli = filepath.Join(t.TempDir(), "decouplebench")
	h.layers = filepath.Join(t.TempDir(), "layers")
	var ws []workload
	for _, name := range []string{"sharded", "cosched", "faulted"} {
		w, _ := workloadNamed(name)
		w.scale = w.floor
		ws = append(ws, w)
	}
	runs, drivers, err := measure(h, options{workloads: ws, seed: 7, endToEnd: true, traced: true,
		minSetups: 1, minTimed: 1, scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if drivers.TrajectoryVersion <= 0 {
		t.Errorf("trajectory version %d", drivers.TrajectoryVersion)
	}
	for _, r := range runs {
		// At 32 procs decoupling does not yet pay, so the paper-claim checks
		// may fail; every other operation must succeed.
		for _, f := range r.failures {
			if !strings.Contains(f, "decoupled beats the reference") {
				t.Error(f)
			}
		}
		res := r.result(false)
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s %s = %+v", r.w.name, d.Name, v)
			}
		}
		traced := r.result(true)
		if len(traced.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics, want %d", r.w.name, len(traced.Metrics), len(perLayer()))
		}
		for _, exp := range r.w.experiments {
			if name := experimentLayer[exp] + ".ns_per_event"; traced.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s missing", r.w.name, name)
			}
		}
		for _, name := range []string{"engine.events", "engine.events_per_s", "host.cpu_s", "sim.engine.heap_ns", "mpi.reliable.loss5_retransmits"} {
			if traced.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", r.w.name, name, traced.Metrics[name].Value)
			}
		}
	}
	if err := h.tr.write(filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Error(err)
	}
}
