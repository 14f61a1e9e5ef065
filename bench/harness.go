package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// harness builds the two programs under test and runs them as children.
// The CLI is one-shot, so a user pays process start, cold pools and heap
// growth on every run; timing child processes is timing what they pay.
type harness struct {
	dir    string // the benchmark's own directory, where it runs
	cli    string // built cmd/decouplebench
	layers string // built bench/layers
	tr     *tracer
	root   int // the run's span
}

func newHarness() (*harness, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"layers/main.go", "../cmd/decouplebench/main.go"} {
		if _, err := os.Stat(filepath.Join(dir, need)); err != nil {
			return nil, fmt.Errorf("run from the benchmark's directory inside the repository (go run -C bench repro/bench): %w", err)
		}
	}
	h := &harness{
		dir:    dir,
		cli:    filepath.Join(dir, "out", "bin", "decouplebench"),
		layers: filepath.Join(dir, "out", "bin", "layers"),
		tr:     newTracer(),
	}
	h.root = h.tr.begin("run", -1)
	return h, nil
}

// build compiles pkg, named relative to dir, into out. It is the one child
// that keeps the caller's environment: the Go tool needs its caches.
func (h *harness) build(dir, pkg, out string) error {
	id := h.tr.begin("build "+pkg, h.root)
	defer h.tr.end(id)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, msg)
	}
	return nil
}

func (h *harness) buildCLI() error {
	return h.build(filepath.Dir(h.dir), "./cmd/decouplebench", h.cli)
}

func (h *harness) buildLayers() error { return h.build(h.dir, "./layers", h.layers) }

// invocation is one finished child.
type invocation struct {
	span       int
	start, end float64 // on the tracer's clock
	cpu        float64 // user plus system seconds
	rssMB      float64 // peak resident set
	stdout     []byte
}

func (i invocation) wall() float64 { return i.end - i.start }

// invoke runs bin to completion with an empty environment, so no REPRO_*
// switch, GOGC or GOMAXPROCS of the caller's shell reaches the program, and
// records a span under parent. A non-zero exit is an error carrying the
// child's standard error.
func (h *harness) invoke(parent int, name, bin string, args ...string) (invocation, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = []string{}
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	inv := invocation{start: h.tr.now()}
	err := cmd.Run()
	inv.end = h.tr.now()
	inv.span = h.tr.add(name, parent, inv.start, inv.end)
	if err != nil {
		return inv, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	inv.stdout = stdout.Bytes()
	inv.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return inv, nil
}

// provenance is the report header: what was measured, on what.
func (h *harness) provenance(seed int64, ws []workload) string {
	var b strings.Builder
	line := func(k, v string) { fmt.Fprintf(&b, "# %-18s %s\n", k, v) }
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", h.dir, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gover := "unknown"
	if out, err := exec.Command("go", "version").Output(); err == nil {
		gover = strings.TrimSpace(string(out))
	}
	line("commit", commit)
	line("go", gover)
	line("cpus", fmt.Sprint(runtime.NumCPU()))
	line("seed", fmt.Sprint(seed))
	for _, w := range ws {
		line(w.name, "decouplebench "+strings.Join(w.args(w.scale), " ")+" -format csv")
		line(w.name+" (floor)", "decouplebench "+strings.Join(w.args(w.floor), " ")+" -format csv")
	}
	return b.String()
}

// layersReport mirrors the JSON bench/layers prints.
type layersReport struct {
	TrajectoryVersion int                    `json:"trajectory_version"`
	Metrics           map[string]resultValue `json:"metrics"`
	Drivers           []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"drivers"`
}

// runLayers runs the per-layer drivers once and returns their metrics, with
// one span per driver laid end to end inside the child's span.
func (h *harness) runLayers(seed int64, scale float64) (layersReport, error) {
	var rep layersReport
	inv, err := h.invoke(h.root, "layers", h.layers, "-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale))
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(inv.stdout, &rep); err != nil {
		return rep, fmt.Errorf("layers: %w", err)
	}
	at := inv.start
	for _, d := range rep.Drivers {
		h.tr.add("driver "+d.Name, inv.span, at, at+d.Seconds)
		at += d.Seconds
	}
	for _, m := range driverMetrics {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return rep, fmt.Errorf("layers: metric %s missing or not in %s", m.Name, m.Unit)
		}
	}
	return rep, nil
}

// cliReport mirrors `decouplebench -json`.
type cliReport map[string]struct {
	NsPerOp int64  `json:"ns_per_op"`
	Events  uint64 `json:"events"`
}
