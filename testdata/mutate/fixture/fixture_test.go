package fixture

import "testing"

func TestFullAtMax(t *testing.T) {
	if !Full(3, 3) || Full(2, 3) {
		t.Fatal("Full is wrong at its boundary")
	}
}

// TestFullExample is redundant: TestFullAtMax kills its one mutant too.
func TestFullExample(t *testing.T) {
	if !Full(5, 3) {
		t.Fatal("Full(5, 3) = false")
	}
}

func TestLarger(t *testing.T) {
	if Larger(1, 2) != 2 {
		t.Fatal("Larger(1, 2) != 2")
	}
}

func TestSum(t *testing.T) {
	if Sum([]int{1, 2}) != 3 {
		t.Fatal("Sum(1, 2) != 3")
	}
}

func TestPrime(t *testing.T) { Prime() }

// TestUnprimed is order-dependent: on its own it passes, right after
// TestPrime it fails, mutant or not.
func TestUnprimed(t *testing.T) {
	if n := Prime(); n != 1 {
		t.Fatalf("primed %d times, want once", n)
	}
}

// TestDue reaches the clock's boundary and counts the ticks: a schema that
// evaluated tick twice would fail it with no mutant selected.
func TestDue(t *testing.T) {
	at := ticks + 1
	if !Due(at) || ticks != at {
		t.Fatalf("Due(%d) with the clock at %d", at, ticks)
	}
}
