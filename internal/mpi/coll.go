package mpi

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Part is a per-rank contribution to (or result of) a collective: a byte
// count for costing plus an optional real payload.
type Part struct {
	Bytes int64
	Data  interface{}
}

// ReduceOp combines two payloads into one. Implementations must be
// associative and must not mutate their arguments (payloads are shared
// zero-copy across ranks).
type ReduceOp func(a, b interface{}) interface{}

// CostFn models the CPU cost of combining payloads during a reduction, as
// a function of the combined byte count. A nil CostFn means free combines.
type CostFn func(bytes int64) sim.Time

// LinearCost returns a CostFn charging perByte for every combined byte.
func LinearCost(perByte sim.Time) CostFn {
	return func(bytes int64) sim.Time { return sim.Time(bytes) * perByte }
}

// nextCollTag reserves a collective tag for the calling rank. Collectives
// must be invoked in the same order by every member (the usual MPI rule),
// which keeps the per-rank counters in lockstep. A message carries its
// tag in 32 bits, so a communicator that runs more collectives than the
// range above collTagBase holds panics instead of reusing a tag.
func (c *Comm) nextCollTag(me int) int {
	if c.collSeq[me] > math.MaxInt32-collTagBase {
		panic(tooManyCollectives)
	}
	t := collTagBase + c.collSeq[me]
	c.collSeq[me]++
	return t
}

// tooManyCollectives is nextCollTag's panic message.
var tooManyCollectives = fmt.Sprintf("mpi: more than %d collectives on one communicator, the most the int32 tag range above %d holds", math.MaxInt32-collTagBase+1, collTagBase)

// Barrier blocks until all members have entered it (dissemination
// algorithm: ceil(log2 P) rounds of zero-byte messages).
func (c *Comm) Barrier(r *Rank) {
	r.Block("Barrier", func(next sim.StepFunc) sim.StepFunc { return c.FBarrier(r, next) })
}

// Bcast distributes root's part to all members (binomial tree) and returns
// it on every rank.
func (c *Comm) Bcast(r *Rank, root int, part Part) Part {
	return Await(r, "Bcast", func(then func(Part) sim.StepFunc) sim.StepFunc { return c.FBcast(r, root, part, then) })
}

// Reduce combines every member's part at root (binomial tree). The
// combined part and true are returned at root; other ranks get a zero Part
// and false. cost, if non-nil, charges combine CPU time at each tree node.
func (c *Comm) Reduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn) (res Part, isRoot bool) {
	r.Block("Reduce", func(next sim.StepFunc) sim.StepFunc {
		return c.FReduce(r, root, part, op, cost, func(p Part, ok bool) sim.StepFunc {
			res, isRoot = p, ok
			return next
		})
	})
	return res, isRoot
}

// Allgatherv collects every member's part on every rank, in comm-rank
// order. Power-of-two sizes use recursive doubling (log P rounds with
// doubling volumes); other sizes use a ring (P-1 rounds).
//
// The returned slice is one result shared by every member of the
// communicator (see gatherState) and must not be modified.
func (c *Comm) Allgatherv(r *Rank, part Part) []Part {
	return Await(r, "Allgatherv", func(then func([]Part) sim.StepFunc) sim.StepFunc { return c.FAllgatherv(r, part, then) })
}

// gatherKey names one allgatherv call: a collective tag is used once per
// communicator between rebuilds.
type gatherKey struct {
	comm, tag int
}

// gatherState is the result of one allgatherv, shared by all members the
// way splitState shares Split membership: the parts travel through shared
// simulator state, their cost through the modelled messages, which carry
// only the byte count a real implementation would have moved (DESIGN.md).
// Each member writes its own slot on entry, before its first send, and a
// member can only finish after hearing transitively from every other, so
// every slot is written before any member reads the result.
type gatherState struct {
	parts []Part
	left  int // members that have not taken the result yet
}

// gatherEnter records me's part in the shared result of the allgatherv
// (c, tag), creating the result on the first arrival.
func (c *Comm) gatherEnter(me, tag int, part Part) *gatherState {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	k := gatherKey{c.id, tag}
	st := w.gathers[k]
	if st == nil {
		p := len(c.members)
		st = &gatherState{parts: make([]Part, p), left: p}
		w.gathers[k] = st
	}
	st.parts[me] = part
	return st
}

// gatherLeave hands a finishing member the shared result; the last member
// out drops the registry entry. An entry a failure interrupted is dropped
// by completeRebuild instead, hence the identity check.
func (c *Comm) gatherLeave(tag int, st *gatherState) []Part {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	st.left--
	if k := (gatherKey{c.id, tag}); st.left == 0 && w.gathers[k] == st {
		delete(w.gathers, k)
	}
	return st.parts
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
