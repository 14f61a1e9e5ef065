package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Comm is a communicator: an ordered group of ranks with a private message
// context. The same *Comm descriptor is shared by all member ranks.
type Comm struct {
	w       *World
	id      int
	members []int       // comm rank -> world rank
	index   map[int]int // world rank -> comm rank; nil when members[i] == i
	collSeq []int       // per-member collective tag counters (lockstep)
}

// newComm builds a communicator descriptor over the given world ranks. A
// nil index declares the identity communicator (the world's), whose rank
// translation needs no map.
// Every communicator is registered with its world so a post-crash rebuild
// can reset collective state world-wide (see completeRebuild).
func newComm(w *World, members []int, index map[int]int) *Comm {
	c := &Comm{
		w:       w,
		id:      w.nextCommID(),
		members: members,
		index:   index,
		collSeq: make([]int, len(members)),
	}
	w.allComms = append(w.allComms, c)
	return c
}

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// ID reports the communicator's context id.
func (c *Comm) ID() int { return c.id }

// RankOf reports r's rank within this communicator. It panics if r is not
// a member.
func (c *Comm) RankOf(r *Rank) int {
	cr, ok := c.commRank(r.rs.rank)
	if !ok {
		panic(fmt.Sprintf("mpi: world rank %d is not a member of comm %d", r.rs.rank, c.id))
	}
	return cr
}

// commRank translates a world rank to its rank in c, if it is a member.
func (c *Comm) commRank(worldRank int) (int, bool) {
	if c.index == nil {
		return worldRank, worldRank < len(c.members)
	}
	cr, ok := c.index[worldRank]
	return cr, ok
}

// splitState accumulates one collective Split call over a parent comm.
type splitState struct {
	want    int
	entries []splitEntry
	result  map[int]*Comm // color -> child comm
}

type splitEntry struct {
	color, key, worldRank int
}

// Split partitions the communicator by color, ordering ranks within each
// child by (key, parent rank), like MPI_Comm_split. It is collective over
// the communicator: every member must call it with the same generation of
// arguments. A color of -1 (like MPI_UNDEFINED) returns nil for that rank.
//
// Membership metadata is exchanged through shared simulator state; the
// network cost of the operation is modelled by the barrier that closes the
// rendezvous.
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	return Await(r, "Split", func(then func(*Comm) sim.StepFunc) sim.StepFunc { return c.FSplit(r, color, key, then) })
}

// splitRegister records one member's (color, key) for the current Split
// generation; the last arrival materializes the child communicators.
func (c *Comm) splitRegister(r *Rank, color, key int) *splitState {
	w := c.w
	// Shards may register concurrently in parallel mode; the materialized
	// result is order-independent (entries are re-sorted by (key, world
	// rank) and colors by value), so the lock only protects the maps.
	// Child comm ids can vary with arrival order, which is harmless: ids
	// are opaque registry keys, and collective tags derive from collSeq,
	// not from ids.
	w.mu.Lock()
	defer w.mu.Unlock()
	skey := fmt.Sprintf("split:%d", c.id)
	st, ok := w.splits[skey]
	if !ok {
		st = &splitState{want: len(c.members)}
		w.splits[skey] = st
	}
	st.entries = append(st.entries, splitEntry{color: color, key: key, worldRank: r.rs.rank})
	if len(st.entries) == st.want {
		// Last arrival materializes the child communicators.
		st.result = make(map[int]*Comm)
		byColor := make(map[int][]splitEntry)
		for _, en := range st.entries {
			if en.color >= 0 {
				byColor[en.color] = append(byColor[en.color], en)
			}
		}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors) // deterministic comm id assignment
		for _, col := range colors {
			ens := byColor[col]
			sort.Slice(ens, func(i, j int) bool {
				if ens[i].key != ens[j].key {
					return ens[i].key < ens[j].key
				}
				return ens[i].worldRank < ens[j].worldRank
			})
			members := make([]int, len(ens))
			index := make(map[int]int, len(ens))
			for i, en := range ens {
				members[i] = en.worldRank
				index[en.worldRank] = i
			}
			st.result[col] = newComm(w, members, index)
		}
		delete(w.splits, skey)
	}
	return st
}
