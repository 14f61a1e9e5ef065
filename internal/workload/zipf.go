// Package workload generates the deterministic synthetic inputs that
// stand in for the paper's datasets: a Zipf-distributed text corpus with
// skewed file sizes (for the Wikipedia/PUMA logs of the MapReduce study)
// and skewed particle distributions (for iPIC3D's GEM challenge setup).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Corpus describes a synthetic log-file collection. Natural language has a
// Zipf word distribution, which is what makes the MapReduce reduce
// operation irregular across processes (paper Section IV-B).
type Corpus struct {
	// Files is the number of log files.
	Files int
	// MinFileBytes and MaxFileBytes bound the per-file size skew (the
	// paper's files range from 256 MB to 1 GB).
	MinFileBytes int64
	MaxFileBytes int64
	// Vocabulary is the number of distinct words.
	Vocabulary int
	// ZipfS is the Zipf exponent (> 1). Natural language is near 1.1.
	ZipfS float64
	// MeanWordLen is the average word length in bytes, spaces included.
	MeanWordLen int
	// Seed drives the deterministic generation.
	Seed int64
}

// DefaultCorpus mirrors the paper's setup shape at a configurable scale:
// file sizes skewed over a 4x range, Zipfian vocabulary.
func DefaultCorpus(files int, meanFileBytes int64, seed int64) Corpus {
	return Corpus{
		Files:        files,
		MinFileBytes: meanFileBytes / 2,
		MaxFileBytes: meanFileBytes * 2,
		Vocabulary:   50_000,
		ZipfS:        1.1,
		MeanWordLen:  6,
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
	if c.Vocabulary <= 0 {
		return fmt.Errorf("workload: empty vocabulary")
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf exponent %v must exceed 1", c.ZipfS)
	}
	if c.MeanWordLen <= 0 {
		return fmt.Errorf("workload: mean word length %d", c.MeanWordLen)
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

// Words returns a deterministic pseudo-text sample of n words from file i
// as vocabulary indices (rank 0 is the most frequent word). It is used by
// correctness tests and the real word-count kernels; the at-scale
// simulation works from file sizes instead of materializing text.
func (c Corpus) Words(i, n int) []int {
	rng := rand.New(sim.NewSplitMix(sim.Mix64(c.Seed, int64(i)+1_000_003)))
	z := rand.NewZipf(rng, c.ZipfS, 1, uint64(c.Vocabulary-1))
	out := make([]int, n)
	for j := range out {
		out[j] = int(z.Uint64())
	}
	return out
}

// WordString renders vocabulary index v as a word token.
func WordString(v int) string { return fmt.Sprintf("w%06d", v) }
