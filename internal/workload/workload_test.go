package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// total sums the particle counts over the whole process grid.
func (f ParticleField) total() int64 {
	var total int64
	for x := 0; x < f.Dims[0]; x++ {
		for y := 0; y < f.Dims[1]; y++ {
			for z := 0; z < f.Dims[2]; z++ {
				total += f.Count([3]int{x, y, z})
			}
		}
	}
	return total
}

func TestCorpusValidate(t *testing.T) {
	c := DefaultCorpus(100, 1<<20, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("default corpus invalid: %v", err)
	}
	bad := c
	bad.MaxFileBytes = bad.MinFileBytes - 1
	if bad.Validate() == nil {
		t.Error("inverted size range accepted")
	}
}

func TestFileBytesDeterministicAndBounded(t *testing.T) {
	c := DefaultCorpus(200, 1<<20, 42)
	for i := 0; i < c.Files; i++ {
		a, b := c.FileBytes(i), c.FileBytes(i)
		if a != b {
			t.Fatalf("file %d nondeterministic: %d vs %d", i, a, b)
		}
		if a < c.MinFileBytes || a > c.MaxFileBytes {
			t.Fatalf("file %d size %d outside [%d,%d]", i, a, c.MinFileBytes, c.MaxFileBytes)
		}
	}
}

func TestFileSizesVary(t *testing.T) {
	c := DefaultCorpus(100, 1<<20, 7)
	sizes := map[int64]bool{}
	for i := 0; i < c.Files; i++ {
		sizes[c.FileBytes(i)] = true
	}
	if len(sizes) < 90 {
		t.Fatalf("only %d distinct sizes among 100 files", len(sizes))
	}
}

func TestGEMFieldShape(t *testing.T) {
	f := DefaultGEM([3]int{4, 8, 4}, 100_000, 9)
	// The sheet runs across the middle of Y: center processes must hold
	// far more particles than edge processes.
	center := f.Count([3]int{2, 4, 2})
	edge := f.Count([3]int{2, 0, 2})
	if center < 2*edge {
		t.Fatalf("no sheet concentration: center=%d edge=%d", center, edge)
	}
}

func TestGEMMeanApproximatesTarget(t *testing.T) {
	f := DefaultGEM([3]int{4, 8, 4}, 50_000, 11)
	total := f.total()
	procs := int64(4 * 8 * 4)
	mean := total / procs
	if mean < 45_000 || mean > 55_000 {
		t.Fatalf("mean load %d, want ~50000", mean)
	}
}

func TestGEMDeterministic(t *testing.T) {
	f := DefaultGEM([3]int{2, 4, 2}, 10_000, 13)
	for x := 0; x < 2; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 2; z++ {
				c := [3]int{x, y, z}
				if f.Count(c) != f.Count(c) {
					t.Fatal("Count nondeterministic")
				}
			}
		}
	}
}

func TestExitFractionBounded(t *testing.T) {
	f := DefaultGEM([3]int{4, 8, 4}, 50_000, 1)
	for y := 0; y < 8; y++ {
		frac := f.ExitFraction([3]int{0, y, 0}, 0.05)
		if frac <= 0 || frac > 0.5 {
			t.Fatalf("exit fraction %v at y=%d out of range", frac, y)
		}
	}
}

func TestImbalanceVector(t *testing.T) {
	v := Imbalance(1000, 0.3, 17)
	var sum, sumsq float64
	for _, x := range v {
		if x < 0.1 {
			t.Fatalf("multiplier %v below floor", x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / 1000
	sd := math.Sqrt(sumsq/1000 - mean*mean)
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("imbalance mean %v, want ~1", mean)
	}
	if sd/mean < 0.2 || sd/mean > 0.4 {
		t.Fatalf("imbalance CoV %v, want ~0.3", sd/mean)
	}
}

// Property: particle counts are always positive and deterministic for any
// grid coordinate.
func TestCountPositiveProperty(t *testing.T) {
	f := DefaultGEM([3]int{8, 8, 8}, 10_000, 23)
	prop := func(x, y, z uint8) bool {
		c := [3]int{int(x) % 8, int(y) % 8, int(z) % 8}
		n := f.Count(c)
		return n >= 1 && n == f.Count(c)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
