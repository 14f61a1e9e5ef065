package mpi

import (
	"iter"
	"math/bits"
)

// keyTable maps a rank's live matchKeys to their buckets: an open-addressed
// hash table with linear probing in one flat array of power-of-two size.
// What the matcher asks of its index is narrow — a key is three small
// integers, a rank has a handful to a few dozen live at once, and every
// collective round inserts a key and deletes it again — and a generic map
// pays for generality on each of those: hashing 24 bytes through the
// runtime's hasher, group metadata, and tombstones to reclaim. Here a
// lookup is three multiplies and, at the load factor kept (at most 3/4),
// one or two adjacent 32-byte slots.
//
// Deletion shifts the rest of the probe run back over the hole instead of
// leaving a tombstone, so a table that has seen a million single-use keys
// probes exactly like one that has seen only its live ones. Iteration is in
// slot order, a function of the keys and the operations alone, never of a
// per-process hash seed.
type keyTable[V any] struct {
	slots []keySlot[V] // nil until the first put; length is 1 << (64 - shift)
	shift uint
	n     int
}

// keySlot is one table entry; a nil val marks the slot empty.
type keySlot[V any] struct {
	key matchKey
	val *V
}

const keyTableMinSlots = 8

// home is the slot k's probe sequence starts at: the top bits of a
// multiplicative mix, so keys that differ by one in any field (consecutive
// collective tags, neighbouring sources) land far apart. Negative fields
// (AnySource, AnyTag) are just large multipliers.
func (t *keyTable[V]) home(k matchKey) int {
	h := uint64(k.comm)*0x9E3779B97F4A7C15 + uint64(k.src)*0xC2B2AE3D27D4EB4F + uint64(k.tag)*0x165667B19E3779F9
	return int(h >> t.shift)
}

func (t *keyTable[V]) len() int { return t.n }

// get returns k's value, or nil.
func (t *keyTable[V]) get(k matchKey) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == nil {
			return nil
		}
		if s.key == k {
			return s.val
		}
	}
}

// put adds k, which must not be present, with the non-nil value v.
func (t *keyTable[V]) put(k matchKey, v *V) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].val != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = keySlot[V]{k, v}
	t.n++
}

// grow doubles the table (or builds the first one) and rehashes.
func (t *keyTable[V]) grow() {
	old := t.slots
	size := max(2*len(old), keyTableMinSlots)
	t.slots = make([]keySlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.val != nil {
			t.put(s.key, s.val)
		}
	}
}

// del removes k if present.
func (t *keyTable[V]) del(k matchKey) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	for i := t.home(k); t.slots[i].val != nil; i = (i + 1) & mask {
		if t.slots[i].key == k {
			t.delAt(i)
			return
		}
	}
}

// delAt empties slot i and closes the gap: each later entry of the probe
// run moves back into the hole unless that would put it before its home.
func (t *keyTable[V]) delAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].val != nil; j = (j + 1) & mask {
		// The entry at j sits (j-home) slots into its probe sequence; the
		// hole is (j-i) slots behind it, so it may move iff home is no
		// later than the hole.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = keySlot[V]{}
	t.n--
}

// all iterates over the entries in slot order. The loop body may delete
// the entry it is visiting (and no other): closing the gap may bring a
// later entry into the same slot, which is visited next, or wrap an
// already visited one to the end of the array, which is then visited again.
func (t *keyTable[V]) all() iter.Seq2[matchKey, *V] {
	return func(yield func(matchKey, *V) bool) {
		for i := 0; i < len(t.slots); {
			s := t.slots[i]
			if s.val == nil {
				i++
				continue
			}
			if !yield(s.key, s.val) {
				return
			}
			if t.slots[i] == s {
				i++
			}
		}
	}
}

// clear empties the table, keeping its capacity.
func (t *keyTable[V]) clear() {
	clear(t.slots)
	t.n = 0
}
