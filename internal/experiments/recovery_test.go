package experiments

import (
	"strings"
	"testing"
)

// TestRecoverySmoke is the recovery sweep's acceptance check: the
// decoupled variant's best-interval recovery overhead must undercut both
// references — its checkpoints ship to the I/O group off the critical path
// and its per-step memory commits bound the replay, while the references
// re-execute and re-write whole segments. That the sweep replays is
// TestTrajectoryManifest's job.
func TestRecoverySmoke(t *testing.T) {
	rows, err := runExperiment(t, "recovery", Options{Runs: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	best := map[string]float64{}
	for _, r := range rows {
		switch {
		case strings.HasSuffix(r.Series, "recovery-overhead-best"):
			best[strings.TrimSuffix(r.Series, " recovery-overhead-best")] = r.Seconds
		case strings.HasSuffix(r.Series, "wasted-frac"):
			if r.Seconds < 0 || r.Seconds >= 1 {
				t.Errorf("%s k=%g: wasted fraction %v outside [0,1)", r.Series, r.Param, r.Seconds)
			}
		case strings.HasSuffix(r.Series, "effective-makespan"), strings.HasSuffix(r.Series, "crash-inflation"):
			if r.Seconds <= 0 {
				t.Errorf("%s param=%g: non-positive value %v", r.Series, r.Param, r.Seconds)
			}
		}
	}
	for _, v := range []string{"RefColl", "RefShared", "Decoupling"} {
		if _, ok := best[v]; !ok {
			t.Fatalf("no recovery-overhead-best row for %s (have %v)", v, best)
		}
	}
	if d := best["Decoupling"]; d >= best["RefColl"] || d >= best["RefShared"] {
		t.Errorf("decoupled best overhead %v does not undercut the coupled variants (RefColl %v, RefShared %v)",
			d, best["RefColl"], best["RefShared"])
	}
}
