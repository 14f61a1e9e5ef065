package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// TestFaultsEcho: the CSV campaign echo appears exactly when a selected
// experiment consumes the -faults spec, renders canonically, and stays
// silent on specs ParseSpec refuses (the run itself will surface the
// error).
func TestFaultsEcho(t *testing.T) {
	def := faults.DefaultSpec().String()
	cases := []struct {
		names []string
		spec  string
		want  string
	}{
		{[]string{"resilience"}, "", def},
		{[]string{"recovery", "fig8"}, "crashes=3", "crashes=3"},
		{[]string{"fig8"}, "bursts=16", ""},
		{[]string{"resilience"}, "bursts=-1", ""},
		{[]string{"resilience"}, "bursts=1,bursts=2", ""},
		// The lossy sweep builds its verdict tables from its swept rates,
		// not from -faults, so no campaign echo: echoing an unconsumed
		// spec would record a campaign the rows were never measured under.
		{[]string{"lossy"}, "bursts=2", ""},
		// cosched derates the shared bank with a non-empty spec and
		// schedules nothing on an empty one, so only the former echoes.
		{[]string{"cosched"}, "outages=4", "outages=4"},
		{[]string{"cosched", "fig8"}, "none", "none"},
		{[]string{"cosched"}, "", ""},
	}
	for _, c := range cases {
		if got := faultsEcho(c.names, c.spec); got != c.want {
			t.Errorf("faultsEcho(%v, %q) = %q, want %q", c.names, c.spec, got, c.want)
		}
	}
}

// TestCoresFlagSweep drives the same Options plumbing main builds from
// the -cores flag through a small sharded fig8 sweep, so the race job
// exercises the CLI-side path into parallel-mode worlds (sweep workers
// and engine shard workers active at once).
func TestCoresFlagSweep(t *testing.T) {
	opts := experiments.Options{
		MaxProcs: 32, Runs: 1, Workers: 2, Cores: 2,
	}
	fig8, _ := experiments.Lookup("fig8")
	rows, err := fig8.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("row %s/%s procs=%d: non-positive seconds %v", r.Experiment, r.Series, r.Procs, r.Seconds)
		}
	}
	if !strings.HasPrefix(rows[0].Experiment, "fig8") {
		t.Errorf("unexpected experiment %q", rows[0].Experiment)
	}
}

// TestRefusedBeforeAnySweep: a request that cannot be answered — an
// unknown -format, an -out that cannot be opened, an explicit sweep size
// that is not positive, a negative -cores, -cores with an experiment that
// cannot shard (cosched included: it runs on one engine), a -max-procs
// below the first point of a selected weak-scaling sweep, an experiment
// named twice, a -faults that does not parse (a key the spec does not
// have included), a -faults that no selected experiment reads, a -faults
// key that a selected experiment reading -faults does not read, a
// recovery campaign with no crash — is
// refused with exit status 2 and an error starting with the flag, before
// any experiment starts.
// The requests below ask for every experiment at 8192 processes, so
// running even one of them first (the old behaviour: run the sweep, then
// fail with status 1, or silently fall back to the default size) would
// outlast the test timeout.
func TestRefusedBeforeAnySweep(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "rows.csv")
	for _, c := range []struct {
		args []string
		flag string
		// names, if set, is what the error must also name.
		names string
	}{
		{[]string{"-format", "xml"}, "-format", ""},
		{[]string{"-format", "csv", "-out", missing}, "-out", ""},
		{[]string{"-runs", "-3"}, "-runs", ""},
		{[]string{"-runs", "0"}, "-runs", ""},
		{[]string{"-workers", "0"}, "-workers", ""},
		{[]string{"-workers", "-2"}, "-workers", ""},
		{[]string{"-cores", "-1"}, "-cores", ""},
		// Later flags win: these replace the -experiment (and the size)
		// every case starts with. The fig5 cases each used to run fig5
		// first: then exit 1 with "model: model: ...", print a header and
		// no rows with exit 0, or print every row twice.
		{[]string{"-experiment", "cosched", "-cores", "2"}, "-cores", "cosched"},
		{[]string{"-experiment", "fig5,model", "-cores", "2"}, "-cores", ""},
		{[]string{"-experiment", "fig5", "-max-procs", "16"}, "-max-procs", ""},
		{[]string{"-experiment", "fig5,fig5"}, "-experiment", ""},
		// Values that used to fail only once their experiment ran: under
		// all, after the sweeps ahead of it.
		{[]string{"-faults", "bogus=1"}, "-faults", "bogus"},
		// Keys no campaign set, deleted from the spec: refused as unknown,
		// with the valid keys listed.
		{[]string{"-experiment", "recovery", "-faults", "drop-rate=0.001"}, "-faults", `unknown spec key "drop-rate" (valid keys: seed, horizon,`},
		{[]string{"-experiment", "recovery", "-faults", "crash-mtbf=1s"}, "-faults", `unknown spec key "crash-mtbf"`},
		{[]string{"-experiment", "cosched", "-faults", "derate-len=1s"}, "-faults", `unknown spec key "derate-len"`},
		// Flags no selected experiment reads, which used to be dropped
		// with exit 0: lossy and the figures never read -faults.
		{[]string{"-experiment", "lossy", "-faults", "bursts=2"}, "-faults", ""},
		{[]string{"-experiment", "fig5,model,ablation-alpha", "-faults", "none"}, "-faults", ""},
		// Keys a selected sweep does not read. recovery printed the default
		// campaign's rows for them; cosched printed them too; resilience
		// printed them on restart-cost.
		{[]string{"-experiment", "recovery", "-faults", "bursts=64"}, "-faults", "recovery experiment does not read key bursts"},
		{[]string{"-experiment", "recovery", "-faults", "flaps=16"}, "-faults", "recovery experiment does not read key flaps"},
		{[]string{"-experiment", "recovery", "-faults", "outages=9"}, "-faults", "recovery experiment does not read key outages"},
		{[]string{"-experiment", "recovery", "-faults", "horizon=1s"}, "-faults", "recovery experiment does not read key horizon"},
		// A recovery campaign with no crash, which ran two crashes (and
		// under none a zero restart cost and seed).
		{[]string{"-experiment", "recovery", "-faults", "crashes=0"}, "-faults", "recovery experiment needs key crashes"},
		{[]string{"-experiment", "recovery", "-faults", "none"}, "-faults", "recovery experiment needs key crashes"},
		{[]string{"-experiment", "recovery,cosched", "-faults", "none"}, "-faults", "recovery experiment needs key crashes"},
		{[]string{"-experiment", "cosched", "-faults", "flaps=16"}, "-faults", "cosched experiment does not read key flaps"},
		{[]string{"-experiment", "cosched", "-faults", "bursts=64"}, "-faults", "cosched experiment does not read key bursts"},
		{[]string{"-experiment", "cosched", "-faults", "crashes=3"}, "-faults", "cosched experiment does not read key crashes"},
		{[]string{"-experiment", "resilience", "-faults", "crashes=1"}, "-faults", "resilience experiment does not read key crashes"},
		{[]string{"-experiment", "resilience", "-faults", "restart-cost=1s"}, "-faults", "resilience experiment does not read key restart-cost"},
		// Under all, a key must be read by every sweep that reads -faults.
		{[]string{"-faults", "crashes=2"}, "-faults", "cosched experiment does not read key crashes"},
		// A stray argument, where flag parsing used to stop: fig5 ran at
		// 32 ranks with exit 0 and the -runs after it was dropped.
		{[]string{"-experiment", "fig5", "-max-procs", "32", "-runs", "1", "fig6", "-runs", "2"}, `unexpected argument "fig6"`, ""},
	} {
		args := append([]string{"-experiment", "all", "-max-procs", "8192", "-quiet"}, c.args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", c.args, code)
		}
		if !strings.HasPrefix(stderr.String(), c.flag+":") || !strings.Contains(stderr.String(), c.names) {
			t.Errorf("%v: error %q does not start with %s and name %q", c.args, stderr.String(), c.flag, c.names)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", c.args, stdout.String())
		}
	}
	// -max-procs itself, which the cases above needed for their size.
	var stderr bytes.Buffer
	if code := run([]string{"-experiment", "all", "-max-procs", "0", "-quiet"}, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "-max-procs:") {
		t.Errorf("-max-procs 0: exit status %d, error %q; want 2 and the flag named", code, stderr.String())
	}
	// The -cores refusal names the first experiment that cannot shard, once.
	stderr.Reset()
	run([]string{"-experiment", "fig5,model,lossy", "-cores", "2", "-quiet"}, io.Discard, &stderr)
	if got := stderr.String(); strings.Count(got, "model") != 1 || strings.Contains(got, "lossy") {
		t.Errorf("-cores with fig5,model,lossy: error %q, want the model experiment named once and no other", got)
	}
	// A small -max-procs is refused only for a sweep it would empty.
	if code := run([]string{"-experiment", "ablation-alpha", "-max-procs", "16", "-runs", "1", "-quiet", "-format", "csv"}, io.Discard, &stderr); code != 0 {
		t.Errorf("ablation-alpha at -max-procs 16: exit status %d, want 0 (it clamps, it does not sweep)", code)
	}
}

// TestListMarksShardable: -list marks exactly the experiments that run
// under -cores, the weak-scaling figures fig5-fig8.
func TestListMarksShardable(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-list"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("-list: exit status %d", code)
	}
	var marked []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "*" {
			continue
		}
		if _, ok := experiments.Lookup(f[1]); ok {
			marked = append(marked, f[1])
		}
	}
	if got, want := strings.Join(marked, ","), "fig5,fig6,fig7,fig8"; got != want {
		t.Errorf("-list marks %s with *, want %s", got, want)
	}
}

// TestRunWritesOut: the happy path through run — defaults left alone are
// not "explicit", the output file is opened up front and holds the rows.
func TestRunWritesOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rows.csv")
	var stderr bytes.Buffer
	if code := run([]string{"-experiment", "model", "-format", "csv", "-out", out, "-quiet"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "experiment,") || strings.Count(string(data), "\n") < 2 {
		t.Errorf("-out holds %q, want a CSV header and rows", data)
	}
}

// TestBuiltWithProfile: the CLI is compiled against default.pgo, a CPU
// profile of its own sweeps (DESIGN.md, "The CLI is compiled against a
// profile of its own sweeps"). A default build of this package, this test
// binary's included, must name the file in its -pgo build setting. The go
// command refuses to build against a file that does not parse as a CPU
// profile, but it builds against an empty one, which must fail here.
func TestBuiltWithProfile(t *testing.T) {
	f, err := os.Open("default.pgo")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("default.pgo is not gzip'd: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("default.pgo: %d bytes of profile, error %v", n, err)
	}

	info, ok := debug.ReadBuildInfo()
	if !ok {
		t.Fatal("no build info")
	}
	for _, s := range info.Settings {
		if s.Key == "-pgo" {
			if !strings.HasSuffix(s.Value, filepath.Join("cmd", "decouplebench", "default.pgo")) {
				t.Fatalf("built with -pgo=%s, want cmd/decouplebench/default.pgo", s.Value)
			}
			return
		}
	}
	t.Fatal("built without a -pgo profile: go build/test of this package should pick up default.pgo")
}
