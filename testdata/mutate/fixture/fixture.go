// Package fixture is what TestMutateFixture points the mutation tool at: one
// mutant of each operator, a test that kills two of them, a test whose only
// kill the first also makes, a statement no test observes, two tests of which
// the second fails only right after the first, and a counting operand.
package fixture

// Full reports whether n items fill a buffer of max.
func Full(n, max int) bool {
	return n >= max
}

// Larger returns the larger of a and b.
func Larger(a, b int) int {
	if a > b {
		return a
	} else {
		return b
	}
}

var calls int

// Count counts a call; no test reads the count.
func Count() { calls++ }

// Sum adds xs up.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	Count()
	return t
}

// Never cannot return: dropping its panic leaves a mutant that does not
// build.
func Never() int {
	panic("unreachable")
}

var primed int

func prime() { primed++ }

// Prime primes the package and returns how often it has been primed;
// nothing resets the count.
func Prime() int {
	prime()
	return primed
}

var ticks int

func tick() int {
	ticks++
	return ticks
}

// Due advances a clock by one tick and reports whether it has reached at.
// Its boundary mutant's schema must call tick once, as Due does.
func Due(at int) bool {
	return tick() >= at
}
