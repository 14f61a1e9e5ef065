package experiments

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// manifestHeader opens testdata/manifest_v3.txt; the version line follows.
const manifestHeader = `# Trajectory manifest: what every registered experiment reproduces.
# TestTrajectoryManifest runs each entry in-process, in file order, at
# Options{MaxProcs: 128, Runs: 2, Workers: 3} plus the entry's FaultSpec,
# with the memo of fault-free Fig. 8 runs emptied before each entry.
# Columns: experiment, fault spec (- for none), md5 of its rows with every
# Row field written at full float64 precision, events it fired
# (sim.GlobalEvents). To regenerate, run
#   go test -run TrajectoryManifest ./internal/experiments
# which on any mismatch prints this whole file as it should read; copy it
# here only for an intended trajectory change.
`

// manifestEntries lists what the manifest pins, in file order: every
// registered experiment, and cosched once more under a stripe-outage
// campaign, where its policies' shadow banks must carry the faults.
func manifestEntries() []manifestEntry {
	var out []manifestEntry
	for _, name := range Names() {
		out = append(out, manifestEntry{name, "-"})
		if name == "cosched" {
			out = append(out, manifestEntry{name, "outages=4,outage-len=1s"})
		}
	}
	return out
}

// manifestEntry names one manifest line: an experiment and its fault
// spec, "-" for none.
type manifestEntry struct{ name, faults string }

// rowsDigest is the md5 of every field of rows, floats at full precision:
// the CSV's six decimals cannot see a nanosecond.
func rowsDigest(rows []Row) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	h := md5.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s\t%s\t%d\t%s\t%s\t%s\t%d\n",
			r.Experiment, r.Series, r.Procs, g(r.Param), g(r.Seconds), g(r.StdDev), r.Runs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrajectoryManifest holds every experiment's rows and event count to
// testdata/manifest_v3.txt. The file's first section is this test's
// output; the section after its first blank line lists CLI sweeps at
// larger scale, which CI checks and this test copies through unread. The
// fault-free rows then answer each claim of testdata/claims.csv whose
// procs range does not start above them, so those claims cost no sweep
// of their own.
func TestTrajectoryManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at 128 ranks")
	}
	file, err := os.ReadFile("testdata/manifest_v3.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned, larger, _ := strings.Cut(string(file), "\n\n")
	want := map[string][]string{}
	for _, line := range strings.Split(pinned, "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "#"):
		case len(f) == 2 && f[0] == "version":
			if f[1] != strconv.Itoa(sim.TrajectoryVersion) {
				t.Errorf("manifest records TrajectoryVersion %s, the simulator is at %d: regenerate it", f[1], sim.TrajectoryVersion)
			}
		case len(f) == 4:
			want[f[0]+" "+f[1]] = f[2:]
		}
	}

	var got strings.Builder
	fmt.Fprintf(&got, "%sversion %d\n", manifestHeader, sim.TrajectoryVersion)
	byName := map[string][]Row{} // the fault-free rows, for testdata/claims.csv
	for _, e := range manifestEntries() {
		opts := Options{MaxProcs: manifestProcs, Runs: 2, Workers: 3}
		if e.faults != "-" {
			opts.FaultSpec = e.faults
		}
		// The memo lives for the whole process: a count must not depend
		// on which test or experiment filled it first.
		clear(clean.entries)
		ev0 := sim.GlobalEvents()
		rows, err := runExperiment(t, e.name, opts)
		if err != nil {
			t.Fatalf("%s %s: %v", e.name, e.faults, err)
		}
		if e.faults == "-" {
			byName[e.name] = rows
		}
		digest, events := rowsDigest(rows), strconv.FormatUint(sim.GlobalEvents()-ev0, 10)
		fmt.Fprintf(&got, "%s %s %s %s\n", e.name, e.faults, digest, events)
		w := want[e.name+" "+e.faults]
		if w == nil {
			t.Errorf("%s %s: no manifest entry", e.name, e.faults)
			continue
		}
		if w[0] != digest {
			t.Errorf("%s %s: rows moved: digest %s, manifest %s", e.name, e.faults, digest, w[0])
		}
		if w[1] != events {
			t.Errorf("%s %s: events moved: %s fired, manifest %s", e.name, e.faults, events, w[1])
		}
	}
	if got.String() != pinned+"\n" {
		t.Errorf("testdata/manifest_v3.txt should read:\n%s\n%s", got.String(), larger)
	}
	for _, f := range claimFailures(slices.DeleteFunc(readClaims(t), claim.aboveManifest), byName) {
		t.Error(f)
	}
}
