package experiments

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A claim is one row of testdata/claims.csv.
type claim struct {
	line             int
	figure, quantity string
	relation         string // "<", "<=" or "="
	value, tolerance float64
	stddev           bool // the tolerance is the larger stddev of the two rows
	source           string

	// The quantity parsed: the series expression, the procs range it is
	// taken over (every procs when it has no "@") and the param its rows
	// must carry, when it ends in "param=".
	expr    string
	lo, hi  int
	byParam bool
	param   float64
}

// manifestProcs is the scale TestTrajectoryManifest runs every experiment
// at. A claim whose procs range starts above it is checked by
// TestClaimsAboveManifest instead.
const manifestProcs = 128

// aboveManifest reports whether c reads only rows above manifestProcs.
func (c claim) aboveManifest() bool { return c.lo > manifestProcs }

func (c claim) String() string {
	return fmt.Sprintf("claims.csv:%d: %s %q %s %g (source: %s)", c.line, c.figure, c.quantity, c.relation, c.value, c.source)
}

func readClaims(t testing.TB) []claim {
	t.Helper()
	f, err := os.Open("testdata/claims.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.Comment = '#'
	r.FieldsPerRecord = 5
	var out []claim
	for header := true; ; header = false {
		rec, err := r.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("testdata/claims.csv: %v", err)
		}
		if header {
			continue
		}
		line, _ := r.FieldPos(0)
		c := claim{line: line, figure: rec[0], quantity: rec[1], source: rec[4]}
		var value string
		c.relation, value, _ = strings.Cut(rec[2], " ")
		c.value, err = strconv.ParseFloat(value, 64)
		if c.stddev = rec[3] == "stddev"; !c.stddev && err == nil {
			c.tolerance, err = strconv.ParseFloat(rec[3], 64)
		}
		if err != nil || !slices.Contains([]string{"<", "<=", "="}, c.relation) {
			t.Fatalf("testdata/claims.csv:%d: want a relation (<, <= or =), a value and a tolerance, got %q", line, rec)
		}
		if err := c.parseQuantity(); err != nil {
			t.Fatalf("testdata/claims.csv:%d: %v", line, err)
		}
		out = append(out, c)
	}
}

// parseQuantity splits c.quantity into its series expression, procs
// range and param.
func (c *claim) parseQuantity() error {
	q, param, byParam := strings.Cut(c.quantity, " param=")
	if byParam {
		pv, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return fmt.Errorf("bad param %q", param)
		}
		c.byParam, c.param = true, pv
	}
	q, procs, ranged := strings.Cut(q, " @")
	c.expr, c.lo, c.hi = q, 0, math.MaxInt
	if ranged {
		from, to, _ := strings.Cut(procs, "-")
		c.lo, _ = strconv.Atoi(from)
		if c.hi, _ = strconv.Atoi(cmp.Or(to, from)); c.hi == 0 {
			return fmt.Errorf("bad procs range %q", procs)
		}
	}
	return nil
}

// claimFailures checks each claim against rows, by experiment, and
// describes every point where one does not hold.
func claimFailures(claims []claim, rows map[string][]Row) []string {
	var out []string
	for _, c := range claims {
		// series finds one series' row at each procs in range.
		series := func(name string) map[int][]Row {
			at := map[int][]Row{}
			for _, r := range rows[c.figure] {
				if r.Series == name && r.Procs >= c.lo && r.Procs <= c.hi && (!c.byParam || r.Param == c.param) {
					at[r.Procs] = append(at[r.Procs], r)
				}
			}
			return at
		}
		type point struct {
			procs    int
			got, tol float64
		}
		var points []point
		if s, ok := strings.CutPrefix(c.expr, "argmin "); ok {
			for p, rs := range series(s) {
				best := rs[0]
				for _, r := range rs[1:] {
					if r.Seconds < best.Seconds {
						best = r
					}
				}
				points = append(points, point{p, best.Param, c.tolerance})
			}
		} else {
			op := " / "
			a, b, ok := strings.Cut(c.expr, op)
			if !ok {
				op = " - "
				a, b, _ = strings.Cut(c.expr, op)
			}
			as, bs := series(a), series(b)
			for p, ra := range as {
				rb, ok := bs[p]
				if !ok {
					continue
				}
				x, y := ra[0], rb[0]
				pt := point{p, x.Seconds - y.Seconds, c.tolerance}
				if op == " / " {
					pt.got = x.Seconds / y.Seconds
				}
				if c.stddev {
					pt.tol = math.Max(x.StdDev, y.StdDev)
				}
				points = append(points, pt)
			}
		}
		slices.SortFunc(points, func(a, b point) int { return a.procs - b.procs })
		if len(points) == 0 {
			out = append(out, fmt.Sprintf("%v: no rows to check it against", c))
		}
		for _, pt := range points {
			holds := false
			switch c.relation {
			case "<":
				holds = pt.got < c.value+pt.tol
			case "<=":
				holds = pt.got <= c.value+pt.tol
			case "=":
				holds = math.Abs(pt.got-c.value) <= pt.tol
			}
			if !holds {
				out = append(out, fmt.Sprintf("%v: at %d procs it is %.6g (tolerance %g)", c, pt.procs, pt.got, pt.tol))
			}
		}
	}
	return out
}

// TestClaimsNameTheBrokenRow holds the claim check to rows made to break
// each claim in turn: every break must fail the claim it names, by that
// claim's line, and the unbroken rows none.
func TestClaimsNameTheBrokenRow(t *testing.T) {
	claims := readClaims(t)
	rows := func() map[string][]Row {
		alpha := []Row{}
		for _, a := range []struct{ param, s float64 }{{3.125, 25.8}, {6.25, 15.3}, {12.5, 16.6}} {
			alpha = append(alpha, Row{Series: "Decoupling", Procs: 128, Param: a.param, Seconds: a.s})
		}
		var fig5, fig6 []Row
		for _, p := range []int{32, 64, 128} {
			fig5 = append(fig5, Row{Series: "Reference", Procs: p, Seconds: 44.2},
				Row{Series: "Decoupling (alpha=6.25%)", Procs: p, Seconds: 15.3})
			fig6 = append(fig6, Row{Series: "Reference (Blocking)", Procs: p, Seconds: 28.7, StdDev: 0.7},
				Row{Series: "Reference (Non-blocking)", Procs: p, Seconds: 28.6, StdDev: 1.3},
				Row{Series: "Decoupling", Procs: p, Seconds: 28.65, StdDev: 1.2})
		}
		// fig5 above the manifest at the CLI's -runs 2 seconds.
		for _, r := range []struct {
			procs    int
			ref, dec float64
		}{{256, 49.21, 15.70}, {512, 55.10, 16.56}, {1024, 61.10, 17.13}} {
			fig5 = append(fig5, Row{Series: "Reference", Procs: r.procs, Seconds: r.ref},
				Row{Series: "Decoupling (alpha=6.25%)", Procs: r.procs, Seconds: r.dec})
		}
		// fig7 and fig8 at the CLI's -runs 2 seconds: decoupling loses at
		// 128 ranks, and fig8's against RefShared at 256 too.
		var fig7, fig8 []Row
		for _, r := range []struct {
			procs                        int
			ref, dec, coll, shared, fdec float64
		}{{128, 9.05, 9.34, 8.26, 7.75, 9.48}, {256, 10.64, 9.22, 10.20, 9.19, 9.33}, {512, 10.22, 9.55, 10.83, 10.99, 9.73}, {1024, 10.59, 9.42, 13.24, 18.56, 9.69}} {
			fig7 = append(fig7, Row{Series: "Reference", Procs: r.procs, Seconds: r.ref},
				Row{Series: "Decoupling", Procs: r.procs, Seconds: r.dec})
			fig8 = append(fig8, Row{Series: "RefColl", Procs: r.procs, Seconds: r.coll},
				Row{Series: "RefShared", Procs: r.procs, Seconds: r.shared},
				Row{Series: "Decoupling", Procs: r.procs, Seconds: r.fdec})
		}
		var cosched []Row
		for _, j := range []struct {
			jobs         int
			fair, fairWC float64
		}{{2, 2.62, 1.45}, {3, 4.72, 1.90}} {
			fair, wc, procs := fmt.Sprintf("fair jobs=%d hog-tail", j.jobs), fmt.Sprintf("fair-wc jobs=%d hog-tail", j.jobs), 16*j.jobs
			// The 4-stripe rows come first and tie: a claim that read them
			// in place of the 1-stripe rows would fail.
			cosched = append(cosched, Row{Series: fair, Procs: procs, Param: 4, Seconds: 1.38},
				Row{Series: wc, Procs: procs, Param: 4, Seconds: 1.38},
				Row{Series: fair, Procs: procs, Param: 1, Seconds: j.fair},
				Row{Series: wc, Procs: procs, Param: 1, Seconds: j.fairWC})
		}
		var resilience, recovery []Row
		for _, v := range []struct {
			variant     string
			slope, best float64
		}{{"RefColl", 0.0279, 4.70}, {"RefShared", 0.0051, 4.69}, {"Decoupling", 0, 2.14}} {
			resilience = append(resilience, Row{Series: v.variant + " degradation-slope", Procs: 64, Seconds: v.slope})
			recovery = append(recovery, Row{Series: v.variant + " recovery-overhead-best", Procs: 64, Seconds: v.best})
		}
		return map[string][]Row{"ablation-alpha": alpha, "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
			"cosched": cosched, "resilience": resilience, "recovery": recovery}
	}
	if fails := claimFailures(claims, rows()); len(fails) > 0 {
		t.Fatalf("rows that hold every claim fail:\n%s", strings.Join(fails, "\n"))
	}
	for _, b := range []struct {
		fig, series string
		procs       int
		param       float64 // of the row to break
		seconds     float64
		quantity    string // of the one claim of fig that must fail
	}{
		{"ablation-alpha", "Decoupling", 128, 6.25, 17, "argmin Decoupling"}, // 6.25 %, now slower than 12.5 %
		{"fig5", "Decoupling (alpha=6.25%)", 64, 0, 45, "Decoupling (alpha=6.25%) / Reference @32-128"},
		{"fig5", "Reference", 128, 0, 40, "Reference / Decoupling (alpha=6.25%) @128"},
		{"fig5", "Decoupling (alpha=6.25%)", 512, 0, 55.10, "Decoupling (alpha=6.25%) / Reference @256-1024"},
		{"fig5", "Reference", 1024, 0, 55.10, "Reference / Decoupling (alpha=6.25%) @1024"}, // a gain of 3.2 that stopped growing
		{"fig6", "Reference (Non-blocking)", 32, 0, 28.8, "Reference (Non-blocking) - Reference (Blocking)"},
		{"fig6", "Decoupling", 128, 0, 31, "Decoupling - Reference (Non-blocking)"},
		// Decoupling that ties a reference inside the claim's range.
		{"fig7", "Decoupling", 512, 0, 10.22, "Decoupling / Reference @256-1024"},
		{"fig8", "RefColl", 256, 0, 9.33, "Decoupling / RefColl @256-1024"},
		{"fig8", "RefShared", 512, 0, 9.73, "Decoupling / RefShared @512-1024"},
		// A work-conserving hog tail as long as the static one's, on the
		// one stripe where the two policies part.
		{"cosched", "fair-wc jobs=2 hog-tail", 32, 1, 2.62, "fair-wc jobs=2 hog-tail - fair jobs=2 hog-tail param=1"},
		{"cosched", "fair-wc jobs=3 hog-tail", 48, 1, 4.8, "fair-wc jobs=3 hog-tail - fair jobs=3 hog-tail param=1"},
		// A reference that stops degrading (or recovers as cheaply) ties
		// decoupling: only the claim against it fails.
		{"resilience", "RefShared degradation-slope", 64, 0, 0, "Decoupling degradation-slope - RefShared degradation-slope"},
		{"resilience", "RefColl degradation-slope", 64, 0, 0, "Decoupling degradation-slope - RefColl degradation-slope"},
		{"recovery", "RefShared recovery-overhead-best", 64, 0, 2.14, "Decoupling recovery-overhead-best - RefShared recovery-overhead-best"},
		{"recovery", "RefColl recovery-overhead-best", 64, 0, 2.0, "Decoupling recovery-overhead-best - RefColl recovery-overhead-best"},
	} {
		i := slices.IndexFunc(claims, func(c claim) bool { return c.figure == b.fig && c.quantity == b.quantity })
		if i < 0 {
			t.Fatalf("claims.csv has no %s claim %q", b.fig, b.quantity)
		}
		rs := rows()
		for i, r := range rs[b.fig] {
			if r.Series == b.series && r.Procs == b.procs && r.Param == b.param {
				rs[b.fig][i].Seconds = b.seconds
			}
		}
		fails := claimFailures(claims, rs)
		var lines []int
		for _, f := range fails {
			var l int
			fmt.Sscanf(f, "claims.csv:%d:", &l)
			lines = append(lines, l)
		}
		if want := []int{claims[i].line}; !slices.Equal(lines, want) {
			t.Errorf("%s %s at %d procs set to %g: failed claims on lines %v, want %v (%v)\n%s",
				b.fig, b.series, b.procs, b.seconds, lines, want, claims[i], strings.Join(fails, "\n"))
		}
	}
}

// TestClaimsAboveManifest runs fig5, fig7 and fig8 to 1,024 ranks, past
// the crossovers where the paper's decoupled iPIC3D starts to win and into
// the range where fig5's gain grows towards the paper's 4x, none of which
// the manifest's 128 ranks reach, and checks every claim of
// testdata/claims.csv whose procs range starts above manifestProcs.
func TestClaimsAboveManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig5, fig7 and fig8 to 1,024 ranks")
	}
	claims := slices.DeleteFunc(readClaims(t), func(c claim) bool { return !c.aboveManifest() })
	rows := map[string][]Row{}
	for _, c := range claims {
		if rows[c.figure] != nil {
			continue
		}
		rs, err := runExperiment(t, c.figure, Options{MaxProcs: 1024, Runs: 2, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.figure, err)
		}
		rows[c.figure] = rs
	}
	for _, fig := range []string{"fig5", "fig7", "fig8"} {
		if rows[fig] == nil {
			t.Fatalf("claims.csv has no %s claim above %d ranks", fig, manifestProcs)
		}
	}
	for _, f := range claimFailures(claims, rows) {
		t.Error(f)
	}
}
