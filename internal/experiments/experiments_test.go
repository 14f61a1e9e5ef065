package experiments

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/sim"
)

// tiny keeps experiment tests fast.
func tiny() Options { return Options{MaxProcs: 64, Runs: 1} }

func TestSweep(t *testing.T) {
	s := sweep(256)
	want := []int{32, 64, 128, 256}
	if len(s) != len(want) {
		t.Fatalf("sweep = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sweep = %v", s)
		}
	}
}

// runExperiment runs the experiment registered under name, as the CLI
// does.
func runExperiment(t testing.TB, name string, opts Options) ([]Row, error) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	return e.Run(opts)
}

// TestTable: the table is the only registry, so what is left to check is
// that every entry is whole and that the names are the sorted, unique set
// the CLI, the benchmark and testdata/rows_v3.csv know.
func TestTable(t *testing.T) {
	want := []string{"ablation-alpha", "ablation-fcfs", "ablation-granularity", "cosched",
		"fig5", "fig6", "fig7", "fig8", "lossy", "model", "recovery", "resilience"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %q, want %q", got, want)
	}
	for _, e := range table {
		if e.Description == "" || e.run == nil {
			t.Errorf("experiment %q: description %q, runner set %v", e.Name, e.Description, e.run != nil)
		}
	}
	if _, ok := Lookup("fig9"); ok {
		t.Error("Lookup found an unregistered experiment")
	}
}

// TestCheckFaultSpec: a sweep that reads the fault spec accepts exactly
// the keys in its FaultKeys, and refuses any other naming the key and the
// sweep; "default", "none" and an empty spec set no key, and a sweep that
// ignores the spec refuses nothing. Run refuses with the same error
// before any point runs.
func TestCheckFaultSpec(t *testing.T) {
	for _, e := range table {
		for _, spec := range []string{"", "default", "none"} {
			if err := e.CheckFaultSpec(spec); err != nil {
				t.Errorf("%s: spec %q refused: %v", e.Name, spec, err)
			}
		}
		for _, k := range e.FaultKeys {
			if !slices.Contains(faults.SpecKeys(), k) {
				t.Errorf("%s: FaultKeys names %q, which is no spec key", e.Name, k)
			}
		}
		for _, k := range faults.SpecKeys() {
			spec := k + "=1"
			if _, err := faults.ParseSpec(spec); err != nil {
				spec = k + "=1s"
			}
			err := e.CheckFaultSpec(spec)
			switch reads := len(e.FaultKeys) == 0 || slices.Contains(e.FaultKeys, k); {
			case reads && err != nil:
				t.Errorf("%s: spec %q refused: %v", e.Name, spec, err)
			case !reads && (err == nil || !strings.Contains(err.Error(), e.Name) || !strings.Contains(err.Error(), " "+k+";")):
				t.Errorf("%s: spec %q: error %v, want one naming the key and the sweep", e.Name, spec, err)
			}
		}
	}
	recovery, _ := Lookup("recovery")
	if _, err := recovery.Run(Options{MaxProcs: 8192, Runs: 1, FaultSpec: "bursts=64"}); err == nil || err.Error() != recovery.CheckFaultSpec("bursts=64").Error() {
		t.Errorf("recovery.Run with bursts: error %v, want CheckFaultSpec's", err)
	}
}

// TestWeakScalingSweepsStartAtFloor: the experiments the CLI refuses a
// -max-procs below SweepFloor for are exactly those such a cap leaves
// without a point.
func TestWeakScalingSweepsStartAtFloor(t *testing.T) {
	for _, e := range table {
		if !e.WeakScaling {
			continue
		}
		rows, err := e.Run(Options{MaxProcs: SweepFloor - 1, Runs: 1, Workers: 1})
		if err != nil || len(rows) != 0 {
			t.Errorf("%s capped at %d: %d rows, error %v; want no rows", e.Name, SweepFloor-1, len(rows), err)
		}
	}
	if got := sweep(SweepFloor); len(got) != 1 || got[0] != SweepFloor {
		t.Errorf("sweep(%d) = %v, want its floor alone", SweepFloor, got)
	}
}

func TestFig5RowsShape(t *testing.T) {
	rows, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x (1 reference + 3 alphas).
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Fatalf("non-positive time in %+v", r)
		}
	}
	// Decoupled must beat the reference at 64 procs.
	var ref, dec float64
	for _, r := range rows {
		if r.Procs == 64 && r.Series == "Reference" {
			ref = r.Seconds
		}
		if r.Procs == 64 && strings.Contains(r.Series, "6.25") {
			dec = r.Seconds
		}
	}
	if dec <= 0 || ref <= dec {
		t.Fatalf("fig5 at 64 procs: ref=%v dec=%v", ref, dec)
	}
}

func TestFig6RowsShape(t *testing.T) {
	rows, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	series := map[string]bool{}
	for _, r := range rows {
		series[r.Series] = true
	}
	for _, want := range []string{"Reference (Blocking)", "Reference (Non-blocking)", "Decoupling"} {
		if !series[want] {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFig7And8Rows(t *testing.T) {
	rows, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("fig7 rows = %d", len(rows))
	}
	rows, err = Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fig8 rows = %d", len(rows))
	}
}

func TestSyntheticConventionalMatchesEq1(t *testing.T) {
	c := DefaultSynthetic(32)
	c.ImbalanceCoV = 0.0001 // nearly balanced
	got, err := RunSyntheticConventional(c)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Conventional(c.ModelParams())
	ratio := float64(got) / float64(want)
	if ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("conventional measured %v vs Eq1 %v (ratio %.3f)", got, want, ratio)
	}
}

func TestSyntheticDecoupledBeatsConventional(t *testing.T) {
	c := DefaultSynthetic(64)
	conv, err := RunSyntheticConventional(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := RunSyntheticDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	if dec >= conv {
		t.Fatalf("decoupled (%v) not faster than conventional (%v)", dec, conv)
	}
}

func TestGranularityAblationHasInteriorOptimum(t *testing.T) {
	rows, err := AblationGranularity(Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var meas []Row
	for _, r := range rows {
		if r.Series == "Decoupling" {
			meas = append(meas, r)
		}
	}
	if len(meas) < 5 {
		t.Fatalf("only %d measured points", len(meas))
	}
	best := 0
	for i, r := range meas {
		if r.Seconds < meas[best].Seconds {
			best = i
		}
	}
	if best == 0 || best == len(meas)-1 {
		t.Fatalf("optimum at boundary (index %d of %d): fine grains should pay overhead, coarse grains should lose pipelining", best, len(meas))
	}
}

func TestFCFSAblation(t *testing.T) {
	rows, err := AblationFCFS(Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fcfs, fixed float64
	for _, r := range rows {
		switch r.Series {
		case "FCFS (consumer idle)":
			fcfs = r.Seconds
		case "Fixed order (consumer idle)":
			fixed = r.Seconds
		}
	}
	if fcfs <= 0 || fixed < fcfs {
		t.Fatalf("FCFS %.3fs should not exceed fixed order %.3fs", fcfs, fixed)
	}
}

func TestModelValidationAgreement(t *testing.T) {
	rows, err := ModelValidation(Options{MaxProcs: 64, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	bySeries := map[string]map[int]float64{}
	critical := map[int]float64{}
	for _, r := range rows {
		if bySeries[r.Series] == nil {
			bySeries[r.Series] = map[int]float64{}
		}
		bySeries[r.Series][r.Procs] = r.Seconds
		if r.Series == "Decoupled (Bracket)" {
			critical[r.Procs] = r.Param
		}
	}
	for p, measured := range bySeries["Conventional (measured)"] {
		predicted := bySeries["Conventional (Eq1)"][p]
		if ratio := measured / predicted; ratio < 0.8 || ratio > 1.5 {
			t.Errorf("procs=%d conventional measured/Eq1 = %.3f", p, ratio)
		}
	}
	// The decoupled time is held to the form that holds for the critical
	// group (model.Bracket, the row's own series): the predicted gain must
	// have the measured gain's sign, and the time must be right to 1 %.
	for p, measured := range bySeries["Decoupled (measured)"] {
		predicted := bySeries["Decoupled (Bracket)"][p]
		if gain, predictedGain := bySeries["Conventional (measured)"][p]-measured, bySeries["Conventional (Eq1)"][p]-predicted; (gain > 0) != (predictedGain > 0) {
			t.Errorf("procs=%d: measured Tc-Td = %.4f s, but Eq. 1 - Bracket = %.4f s", p, gain, predictedGain)
		}
		if ratio := measured / predicted; ratio < 0.99 || ratio > 1.01 {
			t.Errorf("procs=%d decoupled measured/Bracket (Op%.0f critical) = %.4f, want within 1 %%", p, critical[p], ratio)
		}
	}
}

// lastComp records each rank's latest compute-span end.
type lastComp []sim.Time

func (l lastComp) Span(rank int, category, _ string, _, end sim.Time) {
	if category == "comp" && end > l[rank] {
		l[rank] = end
	}
}

// TestSyntheticCriticalGroup reads which group of the decoupled synthetic
// application finishes last, beyond ModelValidation's 512-rank cap, and
// holds model.Bracket to naming it. Consumers that were the critical path
// end a backlog after the producers; consumers that kept pace end one
// element's Op1 time after them. The critical group flips between 512 and
// 1,024 ranks, where Eq. 4 overshoots (DESIGN.md, "The critical group of
// the synthetic model flips between 512 and 1,024 ranks").
func TestSyntheticCriticalGroup(t *testing.T) {
	for _, p := range []int{256, 512, 1024} {
		c := DefaultSynthetic(p)
		ends := make(lastComp, p)
		c.Tracer = ends
		td, err := RunSyntheticDecoupled(c)
		if err != nil {
			t.Fatal(err)
		}
		consumers := int(float64(p)*c.Alpha + 0.5)
		producersEnd := slices.Max(ends[:p-consumers])
		consumersEnd := slices.Max(ends[p-consumers:])
		drain := sim.FromSeconds(float64(c.S) / (c.Op1Rate * c.DecoupledRateGain))
		measured := 1
		if consumersEnd-producersEnd <= 2*drain {
			measured = 0
		}
		bracket, critical := model.Bracket(c.ModelParams())
		t.Logf("procs=%d: producers end %v, consumers %v, makespan %v; Bracket %v (Op%d critical), measured/Bracket %.4f",
			p, producersEnd, consumersEnd, td, bracket, critical, td.Seconds()/bracket.Seconds())
		if critical != measured {
			t.Errorf("procs=%d: Bracket names Op%d critical, the groups' finish instants name Op%d", p, critical, measured)
		}
		if consumersEnd > td || td-consumersEnd > drain {
			t.Errorf("procs=%d: consumers end %v, makespan %v: the run should end with the last element's Op1", p, consumersEnd, td)
		}
	}
}

func TestFig2Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Reference implementation") ||
		!strings.Contains(out, "Decoupled implementation") {
		t.Fatalf("missing panels:\n%s", out)
	}
	if !strings.Contains(out, "P6") {
		t.Fatal("missing rank rows")
	}
}

func TestFig3Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, panel := range []string{"(a) conventional", "(b) non-blocking", "(c) decoupled"} {
		if !strings.Contains(out, panel) {
			t.Fatalf("missing panel %q:\n%s", panel, out)
		}
	}
}

func TestFormatTableAndCSV(t *testing.T) {
	rows := []Row{{Experiment: "figX", Series: "S", Procs: 32, Seconds: 1.5, StdDev: 0.1, Runs: 3}}
	var buf bytes.Buffer
	if err := FormatTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "figX") {
		t.Fatal("table missing data")
	}
	buf.Reset()
	if err := FormatCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "figX,S,32,0,1.5") {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestRunPointsAggregates(t *testing.T) {
	opts := Options{Runs: 4, Workers: 2, MaxProcs: 32}.withDefaults()
	rows, err := runPoints(opts, []point{{
		row: Row{Experiment: "x", Series: "s"},
		fn:  func(seed int64) (float64, error) { return float64(seed), nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Seconds != 2.5 {
		t.Fatalf("mean = %v", rows[0].Seconds)
	}
	if sd := rows[0].StdDev; sd < 1.2 || sd > 1.4 { // stddev of 1,2,3,4 is ~1.29
		t.Fatalf("stddev = %v", sd)
	}
	if rows[0].Runs != 4 {
		t.Fatalf("runs = %d", rows[0].Runs)
	}
}

// Worker count must not change any reported value: every (point, run)
// sample lands in its own slot and aggregation order is fixed.
func TestRunPointsWorkerCountInvariant(t *testing.T) {
	sweepOnce := func(workers int) []Row {
		opts := Options{Runs: 2, Workers: workers, MaxProcs: 64}
		rows, err := Fig7(opts)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := sweepOnce(1)
	parallel := sweepOnce(4)
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs between 1 and 4 workers:\n%+v\n%+v", i, serial[i], parallel[i])
		}
	}
}

func TestSyntheticValidate(t *testing.T) {
	c := DefaultSynthetic(32)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Alpha = 0
	if c.Validate() == nil {
		t.Fatal("alpha=0 accepted")
	}
	c = DefaultSynthetic(32)
	c.S = 0
	if c.Validate() == nil {
		t.Fatal("S=0 accepted")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	c := DefaultSynthetic(32)
	a, _ := RunSyntheticDecoupled(c)
	b, _ := RunSyntheticDecoupled(c)
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 || a > 100*sim.Second {
		t.Fatalf("implausible time %v", a)
	}
}
