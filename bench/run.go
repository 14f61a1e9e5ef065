package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

const (
	// A floor invocation takes 20 to 250 ms and a process that short is
	// timed poorly, so setup_s is taken over as many as fit in setupSeconds,
	// and over at least minSetups.
	setupSeconds        = 1.5
	minSetups           = 7
	minTimed            = 3 // timed invocations, at least
	baselineInvocations = 3 // untraced invocations a traced-only run compares against
)

// run accumulates one workload's measurements.
type run struct {
	w    workload
	span int

	setup []float64    // wall of each floor invocation
	timed []invocation // untraced full-size invocations
	ref   []byte       // first timed invocation's CSV; the rest must equal it

	// attempted counts invocations and output checks, failed the ones that
	// went wrong; failures says how.
	attempted, failed int
	failures          []string

	e2e   map[string]float64 // endToEnd metrics
	layer map[string]float64 // perLayer metrics
}

func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, r.w.name+": "+fmt.Sprintf(format, args...))
	}
}

// csv runs the CLI for rows; a failed invocation is a failed operation and
// returns ok false.
func (r *run) csv(h *harness, kind string, args []string) (invocation, bool) {
	inv, err := h.invoke(r.span, kind+" "+r.w.name, h.cli, append(args, "-format", "csv")...)
	r.check(err == nil, "%v", err)
	return inv, err == nil
}

func (r *run) setupInvocation(h *harness) {
	if inv, ok := r.csv(h, "floor", r.w.args(r.w.floor)); ok {
		_, err := parseRows(inv.stdout)
		r.check(err == nil, "floor invocation: %v", err)
		r.setup = append(r.setup, inv.wall())
	}
}

func (r *run) timedInvocation(h *harness) {
	inv, ok := r.csv(h, "invocation", r.w.args(r.w.scale))
	if !ok {
		return
	}
	r.timed = append(r.timed, inv)
	if r.ref == nil {
		r.ref = inv.stdout
		return
	}
	r.check(bytes.Equal(inv.stdout, r.ref), "invocation %d printed different rows than the first", len(r.timed))
}

// rounds is the closed loop with one client: the next child starts only
// after the previous exits. Several workloads take turns, so host drift
// spreads over all of them. It starts another round of invoke only if, at
// the pace so far, the round ends within seconds per workload, and makes at
// least minRounds.
func rounds(runs []*run, seconds float64, minRounds int, invoke func(*run)) {
	budget := seconds * float64(len(runs))
	start := time.Now()
	for round := 0; ; round++ {
		if elapsed := time.Since(start).Seconds(); round >= minRounds && elapsed+elapsed/float64(round) > budget {
			return
		}
		for _, r := range runs {
			invoke(r)
		}
	}
}

// finishEndToEnd checks the rows and derives the end-to-end metrics.
func (r *run) finishEndToEnd(h *harness) {
	r.e2e = map[string]float64{}
	rows, err := parseRows(r.ref)
	r.check(err == nil, "rows: %v", err)
	if err != nil {
		return
	}
	for _, c := range claims(r.w, rows) {
		r.check(c.err == nil, "%s: %v", c.what, c.err)
	}
	if len(r.w.extra) > 0 {
		// The sharded trajectory family is the same for any worker count:
		// one invocation at a single worker must print the same bytes.
		one := r.w
		one.extra = []string{r.w.extra[0], "1"}
		if inv, ok := r.csv(h, "cross-check", one.args(one.scale)); ok {
			r.check(bytes.Equal(inv.stdout, r.ref), "rows under %v differ from rows under %v", one.extra, r.w.extra)
		}
	}
	speedup, err := simSpeedup(r.w, rows)
	r.check(err == nil, "sim_speedup: %v", err)
	// The fastest invocation, not the typical one: the host only ever adds
	// time, and over recorded series of 40 to 84 invocations the minimum of
	// ten repeated two to three times better than their median did.
	r.e2e["wall_s"] = minOf(r.walls())
	r.e2e["setup_s"] = minOf(r.setup)
	r.e2e["sim_speedup"] = speedup
}

func (r *run) walls() []float64 {
	ws := make([]float64, len(r.timed))
	for i, inv := range r.timed {
		ws[i] = inv.wall()
	}
	return ws
}

// tracedPass runs each experiment of the workload in its own child with
// -json, which makes the program report the experiment's in-process time and
// event count. The spans are recorded here, around the calls into the
// program; nothing inside it is instrumented. The untraced invocations it
// compares against are the timed ones when the same process measured them,
// else a few made now.
func (r *run) tracedPass(h *harness) {
	r.layer = map[string]float64{}
	for len(r.timed) < baselineInvocations && r.failed == 0 {
		r.timedInvocation(h)
	}
	var cpu, rss []float64
	for _, inv := range r.timed {
		cpu = append(cpu, inv.cpu)
		rss = append(rss, inv.rssMB)
	}
	untraced := median(r.walls())

	var tracedWall, inProcess, events float64
	var overheads []float64
	for _, exp := range r.w.experiments {
		inv, err := h.invoke(r.span, "traced invocation "+exp, h.cli, append(r.w.args(r.w.scale, exp), "-json")...)
		r.check(err == nil, "%v", err)
		if err != nil {
			continue
		}
		var rep cliReport
		err = json.Unmarshal(inv.stdout, &rep)
		e, ok := rep[exp]
		r.check(err == nil && ok && e.Events > 0 && e.NsPerOp > 0, "traced %s: unusable -json report (%v)", exp, err)
		if err != nil || !ok || e.Events == 0 || e.NsPerOp <= 0 {
			continue
		}
		secs := float64(e.NsPerOp) / 1e9
		// The experiment is the last thing the child does before printing.
		h.tr.add("experiment "+exp, inv.span, inv.end-secs, inv.end)
		tracedWall += inv.wall()
		inProcess += secs
		events += float64(e.Events)
		overheads = append(overheads, (inv.wall()-secs)*1e3)
		l := experimentLayer[exp]
		r.layer[l+".wall_s"] = secs
		r.layer[l+".events"] = float64(e.Events)
		r.layer[l+".ns_per_event"] = float64(e.NsPerOp) / float64(e.Events)
	}
	r.layer["trace.overhead_pct"] = (tracedWall - untraced) / untraced * 100
	r.layer["engine.events"] = events
	r.layer["engine.events_per_s"] = events / inProcess
	r.layer["cmd.decouplebench.overhead_ms"] = median(overheads)
	r.layer["host.cpu_s"] = median(cpu)
	r.layer["host.peak_rss_mb"] = median(rss)
}

// addDrivers copies the driver metrics in and derives the share of the
// workload's wall-clock that the engine drivers' unit cost times the
// workload's event count predicts: the check that a few regions predict the
// whole run.
func (r *run) addDrivers(rep layersReport) {
	for _, m := range driverMetrics {
		r.layer[m.Name] = rep.Metrics[m.Name].Value
	}
	wall := median(r.walls())
	for _, d := range []string{"heap", "heap_deep"} {
		r.layer["model.engine_"+d+"_pct"] = r.layer["sim.engine."+d+"_ns"] * r.layer["engine.events"] / 1e9 / wall * 100
	}
}

// options say what one measurement covers. The smoke test shrinks it with
// the last three.
type options struct {
	workloads           []workload
	seed                int64
	seconds             float64 // budget of the timed invocations, per workload
	endToEnd            bool
	traced              bool
	setupSeconds        float64 // budget of the floor invocations, per workload
	minSetups, minTimed int
	scale               float64 // share of the drivers' operation counts
}

// measure builds what it needs and measures every workload of o.
func measure(h *harness, o options) ([]*run, layersReport, error) {
	var drivers layersReport
	if err := h.buildCLI(); err != nil {
		return nil, drivers, err
	}
	if o.traced {
		if err := h.buildLayers(); err != nil {
			return nil, drivers, err
		}
	}
	runs := make([]*run, len(o.workloads))
	for i, w := range o.workloads {
		runs[i] = &run{w: w, span: h.tr.begin("workload "+w.name, h.root)}
	}
	if o.endToEnd {
		rounds(runs, o.setupSeconds, o.minSetups, func(r *run) { r.setupInvocation(h) })
		rounds(runs, o.seconds, o.minTimed, func(r *run) { r.timedInvocation(h) })
		for _, r := range runs {
			r.finishEndToEnd(h)
		}
	}
	if o.traced {
		for _, r := range runs {
			r.tracedPass(h)
		}
	}
	for _, r := range runs {
		h.tr.end(r.span)
	}
	if o.traced {
		var err error
		if drivers, err = h.runLayers(o.seed, o.scale); err != nil {
			return nil, drivers, err
		}
		for _, r := range runs {
			r.addDrivers(drivers)
		}
	}
	return runs, drivers, nil
}
