package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMutateFixture runs the mutation tool (testdata/mutate) over its
// fixture. The tool must kill Full's boundary mutant with TestFullAtMax
// alone, leave Larger's equivalent boundary and the unobserved Count call
// alive, leave the mutant that does not build out of the rate, hold the
// fixture's baseline and flag TestFullExample, whose one kill
// TestFullAtMax also makes, as redundant. TestUnprimed fails right after
// TestPrime on the unmutated tree, so it must earn no kill of the prime
// call they both cover and be listed as order-dependent. Due's comparison
// calls tick, which counts: TestDue fails with no mutant selected, and
// the tool exits 2, if the schema evaluates that operand twice.
func TestMutateFixture(t *testing.T) {
	out, err := exec.Command("go", "run", "./testdata/mutate", "testdata/mutate/fixture/fixture.go").Output()
	if err != nil {
		t.Fatalf("go run ./testdata/mutate: %v\n%s", err, out)
	}
	const want = `# kill matrix: mutant, then the tests that kill it (pkg.Test: stage 2)
testdata/mutate/fixture/fixture.go:9:11 negate >= to <: killed by TestFullAtMax TestFullExample
testdata/mutate/fixture/fixture.go:9:11 boundary >= to >: killed by TestFullAtMax
testdata/mutate/fixture/fixture.go:14:2 swap if arms: killed by TestLarger
testdata/mutate/fixture/fixture.go:14:7 negate > to <=: killed by TestLarger
testdata/mutate/fixture/fixture.go:14:7 boundary > to >=: SURVIVED
testdata/mutate/fixture/fixture.go:32:2 drop statement: SURVIVED
testdata/mutate/fixture/fixture.go:39:2 drop statement: does not build
testdata/mutate/fixture/fixture.go:49:2 drop statement: SURVIVED
testdata/mutate/fixture/fixture.go:63:16 negate >= to <: killed by TestDue
testdata/mutate/fixture/fixture.go:63:16 boundary >= to >: killed by TestDue

# kill rate per file: killed/built (mutants that do not build are left out)
testdata/mutate/fixture/fixture.go 6/9 66.7% (baseline 66.7%)

# in-package tests: kills, kills no other test makes, redundant when 0 of >0
TestDue 2 2
TestFullAtMax 2 1
TestFullExample 1 0 REDUNDANT
TestLarger 2 2
TestPrime 0 0 kills nothing here
TestSum 0 0 kills nothing here

# order-dependent: fail on the unmutated tree among the selected tests, earn no kill there
repro/testdata/mutate/fixture TestUnprimed: fails with TestPrime TestUnprimed
`
	if string(out) != want {
		t.Errorf("mutation report differs\n--- want ---\n%s--- got ---\n%s", want, out)
	}
}

// TestMutateRemovesItsTempDir runs the mutation tool on a file that does not
// exist, which it reads after making its temporary directory, and requires
// exit status 2 and nothing left in TMPDIR.
func TestMutateRemovesItsTempDir(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mutate")
	if out, err := exec.Command("go", "build", "-o", bin, "./testdata/mutate").CombinedOutput(); err != nil {
		t.Fatalf("go build ./testdata/mutate: %v\n%s", err, out)
	}
	tmp := t.TempDir()
	cmd := exec.Command(bin, "testdata/mutate/no-such-file.go")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	out, err := cmd.CombinedOutput()
	if exit := new(exec.ExitError); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mutate on a missing file: %v, want exit status 2\n%s", err, out)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left %s in TMPDIR", e.Name())
	}
}
