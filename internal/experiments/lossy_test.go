package experiments

import (
	"strings"
	"testing"
)

// TestLossySmoke is the lossy-fabric sweep's acceptance check: the
// decoupled variant's degradation slope (makespan inflation per unit drop
// rate) must not exceed either coupled reference's. Retransmits cost
// microseconds against second-scale file I/O, so every slope sits near
// zero and a small absolute tolerance absorbs reference-side jitter: the
// gate catches a variant melting down under loss. That the sweep replays
// is TestTrajectoryManifest's job.
func TestLossySmoke(t *testing.T) {
	const tol = 2e-3
	rows, err := runExperiment(t, "lossy", Options{Runs: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	slopes := map[string]float64{}
	for _, r := range rows {
		switch {
		case strings.HasSuffix(r.Series, "degradation-slope"):
			slopes[strings.TrimSuffix(r.Series, " degradation-slope")] = r.Seconds
		case strings.HasSuffix(r.Series, "goodput"):
			if r.Seconds <= 0 || r.Seconds > 1 {
				t.Errorf("%s rate=%g: goodput %v outside (0,1]", r.Series, r.Param, r.Seconds)
			}
		}
	}
	for _, v := range []string{"RefColl", "RefShared", "Decoupling"} {
		if _, ok := slopes[v]; !ok {
			t.Fatalf("no degradation-slope row for %s (have %v)", v, slopes)
		}
	}
	if d := slopes["Decoupling"]; d > slopes["RefColl"]+tol || d > slopes["RefShared"]+tol {
		t.Errorf("decoupled slope %v exceeds a coupled variant's by more than %v (RefColl %v, RefShared %v)",
			d, tol, slopes["RefColl"], slopes["RefShared"])
	}
}
