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
}

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
		out = append(out, c)
	}
}

// claimFailures checks each claim against rows, by experiment, and
// describes every point where one does not hold.
func claimFailures(claims []claim, rows map[string][]Row) []string {
	var out []string
	for _, c := range claims {
		q, procs, ranged := strings.Cut(c.quantity, " @")
		lo, hi := 0, math.MaxInt
		if ranged {
			from, to, _ := strings.Cut(procs, "-")
			lo, _ = strconv.Atoi(from)
			if hi, _ = strconv.Atoi(cmp.Or(to, from)); hi == 0 {
				out = append(out, fmt.Sprintf("%v: bad procs range %q", c, procs))
				continue
			}
		}
		// series finds one series' row at each procs in range.
		series := func(name string) map[int][]Row {
			at := map[int][]Row{}
			for _, r := range rows[c.figure] {
				if r.Series == name && r.Procs >= lo && r.Procs <= hi {
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
		if s, ok := strings.CutPrefix(q, "argmin "); ok {
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
			a, b, ok := strings.Cut(q, op)
			if !ok {
				op = " - "
				a, b, _ = strings.Cut(q, op)
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
		var resilience, recovery []Row
		for _, v := range []struct {
			variant     string
			slope, best float64
		}{{"RefColl", 0.0279, 4.70}, {"RefShared", 0.0051, 4.69}, {"Decoupling", 0, 2.14}} {
			resilience = append(resilience, Row{Series: v.variant + " degradation-slope", Procs: 64, Seconds: v.slope})
			recovery = append(recovery, Row{Series: v.variant + " recovery-overhead-best", Procs: 64, Seconds: v.best})
		}
		return map[string][]Row{"ablation-alpha": alpha, "fig5": fig5, "fig6": fig6, "resilience": resilience, "recovery": recovery}
	}
	if fails := claimFailures(claims, rows()); len(fails) > 0 {
		t.Fatalf("rows that hold every claim fail:\n%s", strings.Join(fails, "\n"))
	}
	for _, b := range []struct {
		fig, series string
		procs       int
		seconds     float64
		quantity    string // of the one claim of fig that must fail
	}{
		{"ablation-alpha", "Decoupling", 128, 17, "argmin Decoupling"}, // 6.25 %, now slower than 12.5 %
		{"fig5", "Decoupling (alpha=6.25%)", 64, 45, "Decoupling (alpha=6.25%) / Reference @32-128"},
		{"fig5", "Reference", 128, 40, "Reference / Decoupling (alpha=6.25%) @128"},
		{"fig6", "Reference (Non-blocking)", 32, 28.8, "Reference (Non-blocking) - Reference (Blocking)"},
		{"fig6", "Decoupling", 128, 31, "Decoupling - Reference (Non-blocking)"},
		// A reference that stops degrading (or recovers as cheaply) ties
		// decoupling: only the claim against it fails.
		{"resilience", "RefShared degradation-slope", 64, 0, "Decoupling degradation-slope - RefShared degradation-slope"},
		{"resilience", "RefColl degradation-slope", 64, 0, "Decoupling degradation-slope - RefColl degradation-slope"},
		{"recovery", "RefShared recovery-overhead-best", 64, 2.14, "Decoupling recovery-overhead-best - RefShared recovery-overhead-best"},
		{"recovery", "RefColl recovery-overhead-best", 64, 2.0, "Decoupling recovery-overhead-best - RefColl recovery-overhead-best"},
	} {
		i := slices.IndexFunc(claims, func(c claim) bool { return c.figure == b.fig && c.quantity == b.quantity })
		if i < 0 {
			t.Fatalf("claims.csv has no %s claim %q", b.fig, b.quantity)
		}
		rs := rows()
		for i, r := range rs[b.fig] {
			if r.Series == b.series && r.Procs == b.procs && (b.fig != "ablation-alpha" || r.Param == 6.25) {
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
