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
// TestFullAtMax also makes, as redundant. TestUnprimed fails right after
// TestPrime on the unmutated tree, so it must earn no kill of the prime
// call they both cover and be listed as order-dependent.
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

# kill rate per file: killed/built (mutants that do not build are left out)
testdata/mutate/fixture/fixture.go 4/7 57.1% (baseline 57.1%)

# in-package tests: kills, kills no other test makes, redundant when 0 of >0
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
