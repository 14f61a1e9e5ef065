package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// row is one line of the CLI's `-format csv` output.
type row struct {
	experiment, series string
	procs              int
	param, seconds     float64
}

// parseRows reads the CLI's CSV: a header line, `#` comment lines, and
// experiment,series,procs,param,seconds,stddev,runs records. Empty output
// and non-finite seconds are errors, since both mean a sweep went wrong.
func parseRows(data []byte) ([]row, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.Comment = '#'
	recs, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("csv: no rows")
	}
	rows := make([]row, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		if len(rec) < 5 {
			return nil, fmt.Errorf("csv: short record %q", rec)
		}
		procs, err1 := strconv.Atoi(rec[2])
		param, err2 := strconv.ParseFloat(rec[3], 64)
		secs, err3 := strconv.ParseFloat(rec[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("csv: bad numbers in record %q", rec)
		}
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			return nil, fmt.Errorf("csv: %s %q has seconds %v", rec[0], rec[1], secs)
		}
		rows = append(rows, row{rec[0], rec[1], procs, param, secs})
	}
	return rows, nil
}

// find returns the seconds of the one row matching, or an error.
func find(rows []row, experiment, series string, param float64) (float64, error) {
	for _, r := range rows {
		if r.experiment == experiment && r.series == series && r.param == param {
			return r.seconds, nil
		}
	}
	return 0, fmt.Errorf("no %s row %q at param %g", experiment, series, param)
}

// isDecoupled tells the decoupled series of a figure from its references:
// "Decoupling", "Decoupling (alpha=6.25%)" against "Reference", "RefColl".
func isDecoupled(series string) bool { return strings.HasPrefix(series, "Decoupling") }

// figureSpeedup is the paper's claim for one weak-scaling figure: at the
// largest process count, the best reference time over the best decoupled
// time.
func figureSpeedup(rows []row, experiment string) (float64, error) {
	top := 0
	for _, r := range rows {
		if r.experiment == experiment && r.procs > top {
			top = r.procs
		}
	}
	ref, dec := math.Inf(1), math.Inf(1)
	for _, r := range rows {
		if r.experiment != experiment || r.procs != top {
			continue
		}
		if isDecoupled(r.series) {
			dec = math.Min(dec, r.seconds)
		} else {
			ref = math.Min(ref, r.seconds)
		}
	}
	if math.IsInf(ref, 1) || math.IsInf(dec, 1) || dec <= 0 {
		return 0, fmt.Errorf("%s: no reference and decoupled rows at its largest procs", experiment)
	}
	return ref / dec, nil
}

// figuresSpeedup is the geometric mean of figureSpeedup over experiments.
func figuresSpeedup(rows []row, experiments []string) (float64, error) {
	logSum := 0.0
	for _, e := range experiments {
		s, err := figureSpeedup(rows, e)
		if err != nil {
			return 0, err
		}
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(experiments))), nil
}

// coschedKey parses a co-scheduling series such as "fair-wc jobs=3 hog-tail".
func coschedKey(series string) (policy string, jobs int, what string, ok bool) {
	f := strings.SplitN(series, " ", 3)
	if len(f) != 3 || !strings.HasPrefix(f[1], "jobs=") {
		return "", 0, "", false
	}
	jobs, err := strconv.Atoi(strings.TrimPrefix(f[1], "jobs="))
	return f[0], jobs, f[2], err == nil
}

// coschedSpeedup is how much sooner the hog's tail finishes under the
// work-conserving fair policy than under static fair shares, at the most
// jobs and the narrowest bank the sweep has: fair hog-tail over fair-wc
// hog-tail.
func coschedSpeedup(rows []row) (float64, error) {
	jobs, param := 0, math.Inf(1)
	for _, r := range rows {
		if _, j, what, ok := coschedKey(r.series); ok && what == "hog-tail" {
			jobs = max(jobs, j)
			param = math.Min(param, r.param)
		}
	}
	fair, err := find(rows, "cosched", fmt.Sprintf("fair jobs=%d hog-tail", jobs), param)
	if err != nil {
		return 0, err
	}
	wc, err := find(rows, "cosched", fmt.Sprintf("fair-wc jobs=%d hog-tail", jobs), param)
	if err != nil {
		return 0, err
	}
	if wc <= 0 {
		return 0, fmt.Errorf("cosched: fair-wc hog-tail is %v", wc)
	}
	return fair / wc, nil
}

// faultedSpeedup is the crash-recovery claim: the cheaper reference's
// best-interval recovery overhead over the decoupled variant's.
func faultedSpeedup(rows []row) (float64, error) {
	var v [3]float64
	for i, variant := range []string{"RefColl", "RefShared", "Decoupling"} {
		s, err := find(rows, "recovery", variant+" recovery-overhead-best", 0)
		if err != nil {
			return 0, err
		}
		v[i] = s
	}
	if v[2] <= 0 {
		return 0, fmt.Errorf("recovery: decoupled overhead is %v", v[2])
	}
	return math.Min(v[0], v[1]) / v[2], nil
}

// simSpeedup is the workload's paper-claim ratio, in simulated time.
func simSpeedup(w workload, rows []row) (float64, error) {
	switch w.experiments[0] {
	case "cosched":
		return coschedSpeedup(rows)
	case "resilience":
		return faultedSpeedup(rows)
	}
	return figuresSpeedup(rows, w.experiments)
}

// claim is one yes/no statement about a workload's rows.
type claim struct {
	what string
	err  error // nil when it holds
}

// below checks the "Decoupling <suffix>" row of a fault sweep against both
// references' rows: the CI gates of .github/workflows/ci.yml, re-expressed
// on the CSV.
func below(rows []row, experiment, suffix string, tol float64) claim {
	c := claim{what: fmt.Sprintf("%s: decoupled %s below both references (tolerance %g)", experiment, suffix, tol)}
	dec, err := find(rows, experiment, "Decoupling "+suffix, 0)
	if err != nil {
		c.err = err
		return c
	}
	for _, ref := range []string{"RefColl", "RefShared"} {
		v, err := find(rows, experiment, ref+" "+suffix, 0)
		if err != nil {
			c.err = err
			continue
		}
		ok := dec < v // the resilience and recovery gates are strict
		if tol > 0 {
			ok = dec <= v+tol
		}
		if !ok {
			c.err = fmt.Errorf("decoupled %g against %s %g", dec, ref, v)
		}
	}
	return c
}

// claims lists the output checks of a workload beyond "it ran and repeated
// itself": each failure counts as a failed operation.
func claims(w workload, rows []row) []claim {
	var cs []claim
	for _, e := range w.experiments {
		switch e {
		case "fig5", "fig7":
			c := claim{what: e + ": decoupled beats the reference at the largest procs"}
			if s, err := figureSpeedup(rows, e); err != nil {
				c.err = err
			} else if s <= 1 {
				c.err = fmt.Errorf("speed-up %g", s)
			}
			cs = append(cs, c)
		case "resilience":
			cs = append(cs, below(rows, e, "degradation-slope", 0))
		case "recovery":
			cs = append(cs, below(rows, e, "recovery-overhead-best", 0))
		case "lossy":
			cs = append(cs, below(rows, e, "degradation-slope", 2e-3))
		case "cosched":
			cs = append(cs, coschedClaims(rows)...)
		}
	}
	return cs
}

// coschedClaims: Jain fairness rows lie in (0, 1], and redistributing idle
// shares never makes the hog's tail later than static fair shares do.
func coschedClaims(rows []row) []claim {
	fairness := claim{what: "cosched: fairness rows in (0, 1]"}
	tail := claim{what: "cosched: fair-wc hog-tail at most fair hog-tail"}
	seen := 0
	for _, r := range rows {
		policy, jobs, what, ok := coschedKey(r.series)
		if !ok {
			continue
		}
		switch {
		case what == "fairness":
			seen++
			if !(r.seconds > 0 && r.seconds <= 1) {
				fairness.err = fmt.Errorf("%q at param %g is %g", r.series, r.param, r.seconds)
			}
		case what == "hog-tail" && policy == "fair-wc":
			fair, err := find(rows, "cosched", fmt.Sprintf("fair jobs=%d hog-tail", jobs), r.param)
			if err != nil {
				tail.err = err
			} else if r.seconds > fair {
				tail.err = fmt.Errorf("%q at param %g: %g above fair's %g", r.series, r.param, r.seconds, fair)
			}
		}
	}
	if seen == 0 {
		fairness.err = fmt.Errorf("no fairness rows")
	}
	return []claim{fairness, tail}
}
