// Package workload generates the deterministic synthetic inputs that
// stand in for the paper's datasets: log-file sizes skewed over a 4x range
// (for the Wikipedia/PUMA logs of the MapReduce study) and skewed particle
// distributions (for iPIC3D's GEM challenge setup).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Corpus describes a synthetic log-file collection by its file sizes; the
// simulation costs text by the byte and never materializes it.
type Corpus struct {
	// Files is the number of log files.
	Files int
	// MinFileBytes and MaxFileBytes bound the per-file size skew (the
	// paper's files range from 256 MB to 1 GB).
	MinFileBytes int64
	MaxFileBytes int64
	// Seed drives the deterministic generation.
	Seed int64
}

// DefaultCorpus mirrors the paper's setup shape at a configurable scale:
// file sizes skewed over a 4x range.
func DefaultCorpus(files int, meanFileBytes int64, seed int64) Corpus {
	return Corpus{
		Files:        files,
		MinFileBytes: meanFileBytes / 2,
		MaxFileBytes: meanFileBytes * 2,
		Seed:         seed,
	}
}

// Validate reports whether the corpus parameters are usable.
func (c Corpus) Validate() error {
	if c.Files <= 0 {
		return fmt.Errorf("workload: corpus needs files, got %d", c.Files)
	}
	if c.MinFileBytes <= 0 || c.MaxFileBytes < c.MinFileBytes {
		return fmt.Errorf("workload: bad file size range [%d,%d]", c.MinFileBytes, c.MaxFileBytes)
	}
	return nil
}

// FileBytes reports the deterministic size of file i, log-uniformly
// distributed over [MinFileBytes, MaxFileBytes].
func (c Corpus) FileBytes(i int) int64 {
	if i < 0 || i >= c.Files {
		panic(fmt.Sprintf("workload: file %d of %d", i, c.Files))
	}
	rng := rand.New(sim.NewSplitMix(sim.Mix64(c.Seed, int64(i))))
	lo, hi := math.Log(float64(c.MinFileBytes)), math.Log(float64(c.MaxFileBytes))
	return int64(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// TotalBytes sums all file sizes.
func (c Corpus) TotalBytes() int64 {
	var total int64
	for i := 0; i < c.Files; i++ {
		total += c.FileBytes(i)
	}
	return total
}
