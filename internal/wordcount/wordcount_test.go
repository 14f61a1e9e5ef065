package wordcount

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMapCounts(t *testing.T) {
	hist := Map([]string{"a", "b", "a", "a"})
	if hist["a"] != 3 || hist["b"] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestCombine(t *testing.T) {
	a := map[string]int64{"x": 1, "y": 2}
	b := map[string]int64{"y": 3, "z": 4}
	got := Combine(a, b)
	if got["x"] != 1 || got["y"] != 5 || got["z"] != 4 {
		t.Fatalf("combined = %v", got)
	}
	if got2 := Combine(nil, b); got2["z"] != 4 {
		t.Fatalf("nil dst combine = %v", got2)
	}
}

func TestShardStableAndInRange(t *testing.T) {
	words := []string{"the", "of", "and", "quantum", "plasma"}
	for _, w := range words {
		s := Shard(w, 7)
		if s < 0 || s >= 7 {
			t.Fatalf("shard(%q) = %d out of range", w, s)
		}
		if s != Shard(w, 7) {
			t.Fatalf("shard(%q) unstable", w)
		}
	}
}

func TestShardDistributes(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		counts[Shard(fmt.Sprintf("word%d", i), 8)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received nothing: %v", s, counts)
		}
	}
}

func TestTopOrdering(t *testing.T) {
	hist := map[string]int64{"b": 5, "a": 5, "c": 9, "d": 1}
	top := Top(hist, 3)
	if top[0].Word != "c" || top[1].Word != "a" || top[2].Word != "b" {
		t.Fatalf("top = %v", top)
	}
	if len(Top(hist, 100)) != 4 {
		t.Fatal("Top should clamp to histogram size")
	}
}

// Property: combining the per-chunk maps of any split of a word list
// equals mapping the whole list at once.
func TestMapCombineAssociativityProperty(t *testing.T) {
	f := func(raw []uint8, cut uint8) bool {
		words := make([]string, len(raw))
		for i, r := range raw {
			words[i] = string(rune('a' + r%5))
		}
		k := 0
		if len(words) > 0 {
			k = int(cut) % (len(words) + 1)
		}
		whole := Map(words)
		split := Combine(Map(words[:k]), Map(words[k:]))
		if len(whole) != len(split) {
			return false
		}
		for w, c := range whole {
			if split[w] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sharding partitions any histogram exactly (every word goes to
// exactly one shard, totals preserved).
func TestShardPartitionProperty(t *testing.T) {
	f := func(raw []uint16, nShards uint8) bool {
		n := int(nShards)%9 + 1
		hist := make(map[string]int64)
		for _, r := range raw {
			hist[string(rune('a'+r%26))+string(rune('a'+(r/26)%26))]++
		}
		shards := make([]map[string]int64, n)
		for w, c := range hist {
			s := Shard(w, n)
			if shards[s] == nil {
				shards[s] = make(map[string]int64)
			}
			shards[s][w] += c
		}
		var merged map[string]int64
		for _, sh := range shards {
			merged = Combine(merged, sh)
		}
		if int64(len(merged)) != int64(len(hist)) {
			return false
		}
		for w, c := range hist {
			if merged[w] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
