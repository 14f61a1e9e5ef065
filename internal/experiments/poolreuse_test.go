package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Pool-reuse guards: worlds (and cluster engines) recycle through
// process-wide pools across sweep points and across experiments, so a
// state leak in World.reset / Engine.Reset / matchIndex.reset would show
// up as an experiment's rows changing depending on what ran before it.
// Each test renders an experiment's rows, pollutes the pools with
// differently-shaped experiments (different world sizes, communicators,
// matching patterns, stream channels), renders again, and requires the
// bytes to be identical to the first (fresh-pool) rendering.

// renderRows renders an experiment's rows at reduced scale.
func renderRows(t *testing.T, name string, opts Options) []byte {
	t.Helper()
	rows, err := runExperiment(t, name, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := FormatCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorldPoolReuseAcrossExperiments: a single-world experiment rendered
// before and after two unrelated experiments churned the world pool must
// not change by a byte.
func TestWorldPoolReuseAcrossExperiments(t *testing.T) {
	opts := Options{MaxProcs: 32, Runs: 2, Workers: 2}
	first := renderRows(t, "fig8", opts)
	// Pollute: different world sizes, collectives, stream channels and
	// matching patterns, released back into the same pools.
	renderRows(t, "model", opts)
	renderRows(t, "fig5", opts)
	again := renderRows(t, "fig8", opts)
	if !bytes.Equal(first, again) {
		t.Errorf("fig8 rows changed after pool churn\n--- before ---\n%s--- after ---\n%s", first, again)
	}
}

// TestClusterPoolReuseAcrossExperiments: the cosched experiment recycles
// its shared-engine worlds through a pool of their own and its engines
// through the cluster pool; its rows must be independent of both pools'
// prior contents, and the single-world experiments must be unaffected by
// cosched having run. A recycled world moves between clusters that differ
// in everything it adopts from them — engine, bank width, policy, job
// count and its own job index, a degraded bank — within one sweep and
// across sweeps and worker counts, so the last rendering,
// after churn through all of those, is held to the cosched rows of
// testdata/rows_v3.csv, which were recorded when every shared-engine world
// was built fresh.
func TestClusterPoolReuseAcrossExperiments(t *testing.T) {
	opts := Options{MaxProcs: 32, Runs: 1, Workers: 2}
	cosched := renderRows(t, "cosched", opts)
	fig8 := renderRows(t, "fig8", opts)
	renderRows(t, "model", opts)
	coschedAgain := renderRows(t, "cosched", opts)
	if !bytes.Equal(cosched, coschedAgain) {
		t.Errorf("cosched rows changed after pool churn\n--- before ---\n%s--- after ---\n%s", cosched, coschedAgain)
	}
	fig8Again := renderRows(t, "fig8", opts)
	if !bytes.Equal(fig8, fig8Again) {
		t.Errorf("fig8 rows changed after cosched ran\n--- before ---\n%s--- after ---\n%s", fig8, fig8Again)
	}

	renderRows(t, "cosched", Options{MaxProcs: 32, Runs: 1, Workers: 2, FaultSpec: "default"})
	renderRows(t, "cosched", Options{MaxProcs: 32, Runs: 1, Workers: 1})
	golden, err := os.ReadFile("testdata/rows_v3.csv")
	if err != nil {
		t.Fatal(err)
	}
	_, got, _ := strings.Cut(string(renderRows(t, "cosched", Options{MaxProcs: 32, Runs: 2, Workers: 2})), "\n")
	if want := goldenRows(golden, "cosched"); got != want {
		t.Errorf("cosched rows from recycled worlds differ from testdata/rows_v3.csv\n--- golden ---\n%s--- got ---\n%s", want, got)
	}
}
