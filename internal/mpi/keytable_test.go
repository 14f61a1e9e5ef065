package mpi

import (
	"math/rand"
	"testing"
)

// tableModel drives a keyTable beside a Go map and compares the two after
// every operation, contents and iteration included.
type tableModel struct {
	tb  testing.TB
	tab keyTable[int]
	ref map[matchKey]*int
}

func newTableModel(tb testing.TB) *tableModel {
	return &tableModel{tb: tb, ref: make(map[matchKey]*int)}
}

// key decodes one of 4·16·16 keys from two bytes: few enough that random
// programs re-insert what they deleted and run into each other's probe
// runs, with AnySource/AnyTag (negative fields) and collective tags among
// them.
func tableKey(a, b byte) matchKey {
	k := matchKey{comm: int(a >> 6), src: int(a&15) - 1, tag: int(b&15) - 1}
	if b&16 != 0 {
		k.tag += collTagBase
	}
	return k
}

func (m *tableModel) put(k matchKey) {
	if m.ref[k] != nil {
		return // put requires an absent key, as the matcher guarantees
	}
	v := new(int)
	m.tab.put(k, v)
	m.ref[k] = v
}

func (m *tableModel) del(k matchKey) {
	m.tab.del(k) // present or not
	delete(m.ref, k)
}

func (m *tableModel) check() {
	m.tb.Helper()
	if m.tab.len() != len(m.ref) {
		m.tb.Fatalf("len() = %d, map holds %d", m.tab.len(), len(m.ref))
	}
	seen := 0
	for k, v := range m.tab.all() {
		if m.ref[k] != v {
			m.tb.Fatalf("iteration yields %+v with a value the map does not hold", k)
		}
		seen++
	}
	if seen != len(m.ref) {
		m.tb.Fatalf("iteration visited %d entries, map holds %d", seen, len(m.ref))
	}
	for k, v := range m.ref {
		if m.tab.get(k) != v {
			m.tb.Fatalf("get(%+v) does not return the value put", k)
		}
	}
	if n := len(m.tab.slots); n != 0 && (n&(n-1) != 0 || m.tab.n*4 > n*3) {
		m.tb.Fatalf("%d entries in %d slots", m.tab.n, n)
	}
}

// run decodes a program of three-byte operations: put, get of a key that
// may be absent, delete, and now and then clear or a sweep that deletes
// every other entry from inside the iteration.
func (m *tableModel) run(prog []byte) {
	for ; len(prog) >= 3; prog = prog[3:] {
		k := tableKey(prog[1], prog[2])
		switch op := prog[0]; {
		case op < 120:
			m.put(k)
		case op < 130:
			if got, want := m.tab.get(k), m.ref[k]; got != want {
				m.tb.Fatalf("get(%+v) = %p, map holds %p", k, got, want)
			}
		case op < 250:
			m.del(k)
		case op < 253:
			// Delete while iterating, as matchIndex.reset does: every
			// entry is visited, and the deleted ones only once.
			visits := make(map[matchKey]int)
			for k := range m.tab.all() {
				visits[k]++
				if k.tag&1 == 0 {
					if visits[k] > 1 {
						m.tb.Fatalf("deleted entry %+v visited again", k)
					}
					m.del(k)
				}
			}
			for k := range m.ref {
				if visits[k] == 0 {
					m.tb.Fatalf("sweep never visited %+v", k)
				}
			}
		default:
			m.tab.clear()
			clear(m.ref)
		}
		m.check()
	}
}

func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 200, 1, 1, 0, 1, 1})                               // re-insert after delete
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 0x40, 0, 0, 0x80, 0x1f, 125, 0, 0, 251, 0, 0}) // wildcards, collective tags, sweep
	grow := make([]byte, 0, 3*40)
	for i := byte(0); i < 40; i++ {
		grow = append(grow, 0, i, i/16) // growth in the middle of whatever clusters form
	}
	f.Add(append(grow, 200, 3, 0, 200, 20, 1, 255, 0, 0, 0, 5, 0))
	f.Fuzz(func(t *testing.T, prog []byte) {
		newTableModel(t).run(prog)
	})
}

// TestKeyTableAgainstMap runs random programs with different mixes of puts
// and deletes, so tables fill, drain and refill at several sizes.
func TestKeyTableAgainstMap(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*2000)
		rng.Read(prog)
		for i := 0; i < len(prog); i += 3 {
			if rng.Intn(8) < int(seed%8) {
				prog[i] %= 120 // put-heavy seeds grow large tables
			}
		}
		newTableModel(t).run(prog)
	}
}

// TestKeyTableWrappedCluster builds, by search, a probe run that wraps
// the end of the array, then deletes from its middle and its head: the
// entries behind the hole must stay reachable, including those that have
// to move from the front of the array to its end.
func TestKeyTableWrappedCluster(t *testing.T) {
	m := newTableModel(t)
	m.put(matchKey{}) // builds the minimum table
	m.del(matchKey{})
	size := len(m.tab.slots)
	var run []matchKey
	for tag := 0; len(run) < 5; tag++ {
		k := matchKey{comm: 1, src: 2, tag: tag}
		if h := m.tab.home(k); h >= size-2 { // homes in the last two slots: five of them spill over the end
			run = append(run, k)
			m.put(k)
			m.check()
		}
	}
	if m.tab.slots[0].val == nil || m.tab.slots[size-1].val == nil {
		t.Fatal("the probe run does not wrap the array")
	}
	for _, i := range []int{2, 0, 3, 1, 4} {
		m.del(run[i])
		m.check()
		m.put(run[i]) // re-insert after delete lands behind the run
		m.check()
		m.del(run[i])
		m.check()
	}
}

// TestKeyTableKeepsCapacity: emptying a table — entry by entry or with
// clear — keeps its slots, and a million single-use keys passing through
// leave it as small as its live set (no tombstones to grow for).
func TestKeyTableKeepsCapacity(t *testing.T) {
	var tab keyTable[int]
	v := new(int)
	for i := 0; i < 100; i++ {
		tab.put(matchKey{tag: i}, v)
	}
	size := len(tab.slots)
	tab.clear()
	if tab.len() != 0 || len(tab.slots) != size {
		t.Fatalf("clear left %d entries in %d slots, want 0 in %d", tab.len(), len(tab.slots), size)
	}
	for i := 0; i < 1_000_000; i++ {
		k := matchKey{comm: 1, src: i % 7, tag: collTagBase + i}
		tab.put(k, v)
		if i >= 3 {
			tab.del(matchKey{comm: 1, src: (i - 3) % 7, tag: collTagBase + i - 3})
		}
	}
	if tab.len() != 3 || len(tab.slots) != size {
		t.Fatalf("after a million single-use keys: %d entries in %d slots, want 3 in %d", tab.len(), len(tab.slots), size)
	}
}
