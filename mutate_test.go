package repro

import (
	"os/exec"
	"testing"
)

// TestMutateFixture runs the mutation tool (testdata/mutate) over its
// fixture. The tool must kill Full's boundary mutant with TestFullAtMax
// alone, leave Larger's equivalent boundary and the unobserved Count call
// alive, leave the mutant that does not build out of the rate, hold the
// fixture's baseline and flag TestFullExample, whose one kill
// TestFullAtMax also makes, as redundant.
func TestMutateFixture(t *testing.T) {
	out, err := exec.Command("go", "run", "./testdata/mutate", "testdata/mutate/fixture/fixture.go").Output()
	if err != nil {
		t.Fatalf("go run ./testdata/mutate: %v\n%s", err, out)
	}
	const want = `# kill matrix: mutant, then the tests that kill it (pkg.Test: stage 2)
testdata/mutate/fixture/fixture.go:8:11 negate >= to <: killed by TestFullAtMax TestFullExample
testdata/mutate/fixture/fixture.go:8:11 boundary >= to >: killed by TestFullAtMax
testdata/mutate/fixture/fixture.go:13:2 swap if arms: killed by TestLarger
testdata/mutate/fixture/fixture.go:13:7 negate > to <=: killed by TestLarger
testdata/mutate/fixture/fixture.go:13:7 boundary > to >=: SURVIVED
testdata/mutate/fixture/fixture.go:31:2 drop statement: SURVIVED
testdata/mutate/fixture/fixture.go:38:2 drop statement: does not build

# kill rate per file: killed/built (mutants that do not build are left out)
testdata/mutate/fixture/fixture.go 4/6 66.7% (baseline 66.7%)

# in-package tests: kills, kills no other test makes, redundant when 0 of >0
TestFullAtMax 2 1
TestFullExample 1 0 REDUNDANT
TestLarger 2 2
TestSum 0 0 kills nothing here
`
	if string(out) != want {
		t.Errorf("mutation report differs\n--- want ---\n%s--- got ---\n%s", want, out)
	}
}
