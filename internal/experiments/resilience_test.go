package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestResilienceSmoke is the resilience campaign's acceptance check:
// under the default campaign the decoupled variant's degradation slope
// must undercut both reference variants — buffered, overlapped I/O absorbs
// stripe and link faults the synchronous writers eat on the critical path.
// That the sweep replays is TestTrajectoryManifest's job.
func TestResilienceSmoke(t *testing.T) {
	opts := Options{Runs: 1, Workers: 2}
	if !testing.Short() {
		opts.Runs = 2
	}
	rows, err := runExperiment(t, "resilience", opts)
	if err != nil {
		t.Fatal(err)
	}
	slopes := map[string]float64{}
	for _, r := range rows {
		if strings.HasSuffix(r.Series, "degradation-slope") {
			slopes[strings.TrimSuffix(r.Series, " degradation-slope")] = r.Seconds
		}
		if strings.Contains(r.Series, "inflation") && r.Seconds <= 0 {
			t.Errorf("%s param=%g: non-positive inflation %v", r.Series, r.Param, r.Seconds)
		}
	}
	for _, v := range []string{"RefColl", "RefShared", "Decoupling"} {
		if _, ok := slopes[v]; !ok {
			t.Fatalf("no degradation-slope row for %s (have %v)", v, slopes)
		}
	}
	if d := slopes["Decoupling"]; d >= slopes["RefColl"] || d >= slopes["RefShared"] {
		t.Errorf("decoupled slope %v does not undercut the coupled variants (RefColl %v, RefShared %v)",
			d, slopes["RefColl"], slopes["RefShared"])
	}
}

// coschedFaultSpec is the stripe-only campaign the cosched fault tests
// degrade the shared bank with (rank and link events never reach a
// cluster bank; Plan compiles against zero ranks).
const coschedFaultSpec = "horizon=3s,outages=3,outage-len=800ms,derate-stripes=8,derate-rate=0.25"

// TestCoschedFaultedBankDeterminismAndNeutrality: a faulted cosched
// sweep replays byte-identically, actually perturbs the clean sweep,
// and the "none" spec keeps the sweep on the exact fault-free path.
func TestCoschedFaultedBankDeterminismAndNeutrality(t *testing.T) {
	opts := Options{Runs: 1, Workers: 2}
	clean := renderRows(t, "cosched", opts)
	opts.FaultSpec = "none"
	none := renderRows(t, "cosched", opts)
	if !bytes.Equal(clean, none) {
		t.Errorf("FaultSpec \"none\" moved the sweep\n--- clean ---\n%s--- none ---\n%s", clean, none)
	}
	opts.FaultSpec = coschedFaultSpec
	faulted := renderRows(t, "cosched", opts)
	again := renderRows(t, "cosched", opts)
	if !bytes.Equal(faulted, again) {
		t.Errorf("faulted sweep differs between invocations\n--- first ---\n%s--- second ---\n%s", faulted, again)
	}
	if bytes.Equal(faulted, clean) {
		t.Error("stripe-fault campaign perturbed no cosched row")
	}
}

// TestCoschedFaultedBankLightIsolation: with the shared bank's stripes
// faulted under the hog + lights scenario, the isolation policies must
// still shield the light jobs — on the single contended stripe each
// light's slowdown under fair, priority and their work-conserving
// variants stays at or below its slowdown under FCFS, where the hog's
// backlog and the outages stack up in front of everyone.
func TestCoschedFaultedBankLightIsolation(t *testing.T) {
	opts := Options{Runs: 1, Workers: 2, FaultSpec: coschedFaultSpec}
	rows, err := runExperiment(t, "cosched", opts)
	if err != nil {
		t.Fatal(err)
	}
	// slowdown[policy]["jobs=N job"] on the stripes=1 points.
	slowdown := map[string]map[string]float64{}
	for _, r := range rows {
		if r.Param != 1 || !strings.HasSuffix(r.Series, " slowdown") {
			continue
		}
		fields := strings.Fields(r.Series) // "<policy> jobs=3 <job> slowdown"
		if len(fields) != 4 {
			t.Fatalf("unexpected series shape %q", r.Series)
		}
		pol, job := fields[0], fields[1]+" "+fields[2]
		if slowdown[pol] == nil {
			slowdown[pol] = map[string]float64{}
		}
		slowdown[pol][job] = r.Seconds
		if r.Seconds <= 0 {
			t.Errorf("%s stripes=1: non-positive slowdown %v", r.Series, r.Seconds)
		}
	}
	fcfs := slowdown["fcfs"]
	if fcfs == nil {
		t.Fatal("no fcfs slowdown rows found")
	}
	for _, pol := range []string{"fair", "priority", "fair-wc", "priority-wc"} {
		got := slowdown[pol]
		if got == nil {
			t.Fatalf("no %s slowdown rows found", pol)
		}
		for _, job := range []string{"jobs=2 j1", "jobs=3 j1", "jobs=3 j2"} {
			if _, ok := got[job]; !ok {
				t.Fatalf("no %s %s slowdown row found", pol, job)
			}
			if got[job] > fcfs[job] {
				t.Errorf("light %s under %s slowed %v on the faulted stripe, above FCFS's %v — isolation lost",
					job, pol, got[job], fcfs[job])
			}
		}
	}
}
