package main

import (
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
		{[]string{"recovery", "fig8"}, "bursts=16", "bursts=16"},
		{[]string{"fig8"}, "bursts=16", ""},
		{[]string{"resilience"}, "bursts=-1", ""},
		{[]string{"resilience"}, "bursts=1,bursts=2", ""},
		// The lossy sweep builds its verdict tables from its swept rates,
		// not from -faults, so no campaign echo: echoing an unconsumed
		// spec would record a campaign the rows were never measured under.
		{[]string{"lossy"}, "drop-rate=0.5", ""},
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

// TestListRegistrySync: the -list output (Names + Descriptions) covers
// every registered experiment and nothing else, including the sweeps
// added after the seed (recovery, resilience, lossy).
func TestListRegistrySync(t *testing.T) {
	for _, name := range experiments.Names() {
		if experiments.Descriptions[name] == "" {
			t.Errorf("experiment %q has no -list description", name)
		}
	}
	for name := range experiments.Descriptions {
		if experiments.Registry[name] == nil {
			t.Errorf("description for unregistered experiment %q", name)
		}
	}
	for _, want := range []string{"recovery", "resilience", "lossy"} {
		if experiments.Registry[want] == nil {
			t.Errorf("experiment %q not registered", want)
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
	rows, err := experiments.Registry["fig8"](opts)
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
