package experiments

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mpi"
)

// renderCores renders an experiment's rows with the given worker count.
func renderCores(t *testing.T, name string, opts Options, cores int) []byte {
	t.Helper()
	opts.Cores = cores
	if testing.Short() {
		opts.Runs = 1 // the race-checked CI job runs -short
	}
	return renderRows(t, name, opts)
}

// TestCoresRowsBitIdentical is the determinism contract for the engine's
// conservative parallel mode at the experiment level: fig8 regenerated
// with 1, 2, 4 and 8 workers must produce byte-identical row output.
// (Cores >= 1 is its own trajectory family: every cross-rank delivery
// carries the sender's program order as a tie-break priority, so the
// classic Cores == 0 rows are pinned by the other suites, not compared
// here.)
func TestCoresRowsBitIdentical(t *testing.T) {
	opts := Options{MaxProcs: 32, Runs: 2, Workers: 2}
	ref := renderCores(t, "fig8", opts, 1)
	for _, cores := range []int{2, 4, 8} {
		if got := renderCores(t, "fig8", opts, cores); !bytes.Equal(got, ref) {
			t.Errorf("rows differ between cores=1 and cores=%d\n--- cores=1 ---\n%s--- cores=%d ---\n%s",
				cores, ref, cores, got)
		}
	}
}

// TestFigCoresRowsBitIdentical extends the parallel-mode determinism
// contract to the other weak-scaling figures: fig5, fig6 and fig7
// regenerated with 1, 2, 4 and 8 workers must produce byte-identical row
// output. These experiments involve no shared file, so their sharded
// trajectory family coincides with the classic one; the Cores == 0
// rendering is held to the same bytes to pin that down.
func TestFigCoresRowsBitIdentical(t *testing.T) {
	opts := Options{MaxProcs: 32, Runs: 2, Workers: 2}
	for _, name := range []string{"fig5", "fig6", "fig7"} {
		ref := renderCores(t, name, opts, 1)
		for _, cores := range []int{0, 2, 4, 8} {
			if got := renderCores(t, name, opts, cores); !bytes.Equal(got, ref) {
				t.Errorf("%s: rows differ between cores=1 and cores=%d\n--- cores=1 ---\n%s--- cores=%d ---\n%s",
					name, cores, ref, cores, got)
			}
		}
	}
}

// TestNonShardableExperimentsRejectCores: every experiment not marked
// Shardable must reject -cores with the unified CannotShardError (naming
// the feature and the flag to drop) instead of silently ignoring it or
// failing deep inside a run.
func TestNonShardableExperimentsRejectCores(t *testing.T) {
	for _, e := range table {
		if e.Shardable {
			continue
		}
		_, err := e.Run(Options{MaxProcs: 32, Runs: 1, Workers: 1, Cores: 2})
		if err == nil {
			t.Errorf("%s: no error with Cores=2", e.Name)
			continue
		}
		var cse *mpi.CannotShardError
		if !errors.As(err, &cse) {
			t.Errorf("%s: error %v is not a CannotShardError", e.Name, err)
			continue
		}
		if cse.Flag != "-cores" {
			t.Errorf("%s: CannotShardError names flag %q, want -cores", e.Name, cse.Flag)
		}
	}
}
