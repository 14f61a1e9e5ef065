// Package wordcount implements the real map/reduce kernels of the paper's
// MapReduce case study (Section IV-B): emitting (word, 1) pairs,
// combining partial histograms, and sharding keys over reducers. The
// at-scale simulation costs these kernels with the runtime's compute model;
// correctness tests run them for real.
package wordcount

import "sort"

// Map emits the word histogram of one input chunk — the (w, 1) pairs of
// the paper, pre-combined per chunk as real MapReduce implementations do.
func Map(words []string) map[string]int64 {
	out := make(map[string]int64)
	for _, w := range words {
		out[w]++
	}
	return out
}

// Combine merges src into dst (dst is mutated and returned; a nil dst is
// allocated).
func Combine(dst, src map[string]int64) map[string]int64 {
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// Shard assigns a word to one of n reducers by hash. It is the explicit
// stream-routing function of the decoupled implementation.
func Shard(word string, n int) int {
	if n <= 0 {
		panic("wordcount: Shard over no reducers")
	}
	return int(fnv1a(word) % uint64(n))
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Pair is one histogram entry.
type Pair struct {
	Word  string
	Count int64
}

// Top returns the n most frequent entries, ties broken alphabetically —
// the "word histogram" final answer of the case study.
func Top(hist map[string]int64, n int) []Pair {
	pairs := make([]Pair, 0, len(hist))
	for w, c := range hist {
		pairs = append(pairs, Pair{Word: w, Count: c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Count != pairs[j].Count {
			return pairs[i].Count > pairs[j].Count
		}
		return pairs[i].Word < pairs[j].Word
	})
	if n > len(pairs) {
		n = len(pairs)
	}
	return pairs[:n]
}
