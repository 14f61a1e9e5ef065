package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFiberRowsBitIdentical is the trajectory pin: every registered
// experiment — the figures, the ablations, the fault sweeps and the
// multi-world cosched sweep — rendered at reduced scale must reproduce
// testdata/rows_v3.csv byte for byte. The file is the output of
//
//	decouplebench -experiment all -max-procs 32 -runs 2 -workers 2 -format csv
//
// at PR 12, where goroutine rank bodies and fiber rank bodies both
// produced exactly these bytes. TrajectoryVersion 3 moved events without
// moving a row, so the file is version 2's bytes under version 3's name
// (see the versioning policy in internal/sim/time.go). Regenerate it with
// that command, and only together with a TrajectoryVersion bump.
func TestFiberRowsBitIdentical(t *testing.T) {
	golden, err := os.ReadFile("testdata/rows_v3.csv")
	if err != nil {
		t.Fatal(err)
	}
	// The CLI's campaign echo for the default -faults spec, then the CSV
	// header; FormatCSV re-emits the header per call, so sections are
	// compared and concatenated without it.
	const preamble = "# faults: default\nexperiment,series,procs,param,seconds,stddev,runs\n"
	var all strings.Builder
	all.WriteString(preamble)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rows, err := runExperiment(t, name, Options{MaxProcs: 32, Runs: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := FormatCSV(&buf, rows); err != nil {
				t.Fatal(err)
			}
			_, got, _ := strings.Cut(buf.String(), "\n")
			all.WriteString(got)
			if want := goldenRows(golden, name); got != want {
				t.Errorf("rows differ from testdata/rows_v3.csv\n--- golden ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
	if all.String() != string(golden) && !t.Failed() {
		t.Errorf("every experiment's rows match, yet the rendering differs from testdata/rows_v3.csv (preamble or row order)")
	}
}

// goldenRows returns the rows of one experiment from the golden CSV.
func goldenRows(golden []byte, name string) string {
	var rows strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, name+",") {
			rows.WriteString(line)
		}
	}
	return rows.String()
}
