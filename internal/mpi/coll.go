package mpi

import (
	"fmt"

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
// which keeps the per-rank counters in lockstep.
func (c *Comm) nextCollTag(me int) int {
	t := collTagBase + c.collSeq[me]
	c.collSeq[me]++
	return t
}

// Barrier blocks until all members have entered it (dissemination
// algorithm: ceil(log2 P) rounds of zero-byte messages).
func (c *Comm) Barrier(r *Rank) {
	me := c.RankOf(r)
	c.barrierOn(r, r.proc, me, c.nextCollTag(me))
}

func (c *Comm) barrierOn(r *Rank, proc *simProc, me, tag int) {
	p := len(c.members)
	for k := 1; k < p; k <<= 1 {
		dst := (me + k) % p
		src := (me - k + p) % p
		req := c.isendFrom(r, proc, dst, tag, 0, nil)
		rreq := c.irecvFor(r, src, tag)
		c.waitOn(r, proc, req)
		c.waitOn(r, proc, rreq)
	}
}

// Bcast distributes root's part to all members (binomial tree) and returns
// it on every rank.
func (c *Comm) Bcast(r *Rank, root int, part Part) Part {
	me := c.RankOf(r)
	return c.bcastOn(r, r.proc, me, root, part, c.nextCollTag(me))
}

func (c *Comm) bcastOn(r *Rank, proc *simProc, me, root int, part Part, tag int) Part {
	p := len(c.members)
	if p == 1 {
		return part
	}
	vr := (me - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (vr - mask + root) % p
			st := c.waitOn(r, proc, c.irecvFor(r, src, tag))
			part = Part{Bytes: st.Bytes, Data: st.Data}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr&mask == 0 && vr+mask < p {
			dst := (vr + mask + root) % p
			c.waitOn(r, proc, c.isendFrom(r, proc, dst, tag, part.Bytes, part.Data))
		}
		mask >>= 1
	}
	return part
}

// Reduce combines every member's part at root (binomial tree). The
// combined part and true are returned at root; other ranks get a zero Part
// and false. cost, if non-nil, charges combine CPU time at each tree node.
func (c *Comm) Reduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn) (Part, bool) {
	me := c.RankOf(r)
	return c.reduceOn(r, r.proc, me, root, part, op, cost, c.nextCollTag(me))
}

func (c *Comm) reduceOn(r *Rank, proc *simProc, me, root int, part Part, op ReduceOp, cost CostFn, tag int) (Part, bool) {
	p := len(c.members)
	if p == 1 {
		return part, true
	}
	vr := (me - root + p) % p
	acc := part
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := (vr - mask + root) % p
			c.waitOn(r, proc, c.isendFrom(r, proc, dst, tag, acc.Bytes, acc.Data))
			return Part{}, false
		}
		peer := vr | mask
		if peer < p {
			st := c.waitOn(r, proc, c.irecvFor(r, (peer+root)%p, tag))
			if cost != nil {
				proc.Advance(cost(acc.Bytes + st.Bytes))
			}
			acc = Part{Bytes: maxI64(acc.Bytes, st.Bytes), Data: op(acc.Data, st.Data)}
		}
	}
	return acc, true
}

// Allreduce combines every member's part and returns the result on all
// ranks. Power-of-two sizes use recursive doubling; other sizes reduce to
// rank 0 and broadcast.
func (c *Comm) Allreduce(r *Rank, part Part, op ReduceOp, cost CostFn) Part {
	me := c.RankOf(r)
	return c.allreduceOn(r, r.proc, me, part, op, cost, c.nextCollTag(me))
}

func (c *Comm) allreduceOn(r *Rank, proc *simProc, me int, part Part, op ReduceOp, cost CostFn, tag int) Part {
	p := len(c.members)
	if p == 1 {
		return part
	}
	if p&(p-1) == 0 {
		acc := part
		for mask := 1; mask < p; mask <<= 1 {
			peer := me ^ mask
			sreq := c.isendFrom(r, proc, peer, tag, acc.Bytes, acc.Data)
			st := c.waitOn(r, proc, c.irecvFor(r, peer, tag))
			c.waitOn(r, proc, sreq)
			if cost != nil {
				proc.Advance(cost(acc.Bytes + st.Bytes))
			}
			// Combine in rank order for cross-rank determinism.
			if peer < me {
				acc = Part{Bytes: maxI64(acc.Bytes, st.Bytes), Data: op(st.Data, acc.Data)}
			} else {
				acc = Part{Bytes: maxI64(acc.Bytes, st.Bytes), Data: op(acc.Data, st.Data)}
			}
		}
		return acc
	}
	res, isRoot := c.reduceOn(r, proc, me, 0, part, op, cost, tag)
	if !isRoot {
		res = Part{}
	}
	return c.bcastOn(r, proc, me, 0, res, tag)
}

// Gatherv collects every member's part at root in comm-rank order. Only
// root receives a non-nil slice.
func (c *Comm) Gatherv(r *Rank, root int, part Part) []Part {
	me := c.RankOf(r)
	return c.gathervOn(r, r.proc, me, root, part, c.nextCollTag(me))
}

func (c *Comm) gathervOn(r *Rank, proc *simProc, me, root int, part Part, tag int) []Part {
	p := len(c.members)
	if me != root {
		c.waitOn(r, proc, c.isendFrom(r, proc, root, tag, part.Bytes, part.Data))
		return nil
	}
	out := make([]Part, p)
	out[me] = part
	reqs := make([]*Request, 0, p-1)
	srcs := make([]int, 0, p-1)
	for src := 0; src < p; src++ {
		if src == me {
			continue
		}
		reqs = append(reqs, c.irecvFor(r, src, tag))
		srcs = append(srcs, src)
	}
	for i, q := range reqs {
		st := c.waitOn(r, proc, q)
		out[srcs[i]] = Part{Bytes: st.Bytes, Data: st.Data}
	}
	return out
}

// Allgatherv collects every member's part on every rank, in comm-rank
// order. Power-of-two sizes use recursive doubling (log P rounds with
// doubling volumes); other sizes use a ring (P-1 rounds).
//
// The returned slice is one result shared by every member of the
// communicator (see gatherState) and must not be modified.
func (c *Comm) Allgatherv(r *Rank, part Part) []Part {
	me := c.RankOf(r)
	return c.allgathervOn(r, r.proc, me, part, c.nextCollTag(me))
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
// (c, tag), creating the result on the first arrival. Both process
// representations enter and leave through this pair.
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

func (c *Comm) allgathervOn(r *Rank, proc *simProc, me int, part Part, tag int) []Part {
	p := len(c.members)
	if p == 1 {
		return []Part{part}
	}
	st := c.gatherEnter(me, tag, part)
	// have is the byte count of the parts this rank would hold on the wire.
	have := part.Bytes
	if p&(p-1) == 0 {
		for mask := 1; mask < p; mask <<= 1 {
			peer := me ^ mask
			sreq := c.isendFrom(r, proc, peer, tag, have, nil)
			got := c.waitOn(r, proc, c.irecvFor(r, peer, tag))
			c.waitOn(r, proc, sreq)
			have += got.Bytes
		}
		return c.gatherLeave(tag, st)
	}
	// Ring: pass the neighbour's latest part around, P-1 steps.
	right := (me + 1) % p
	left := (me - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sreq := c.isendFrom(r, proc, right, tag, have, nil)
		got := c.waitOn(r, proc, c.irecvFor(r, left, tag))
		c.waitOn(r, proc, sreq)
		have = got.Bytes
	}
	return c.gatherLeave(tag, st)
}

// Alltoallv sends parts[i] to comm rank i and returns the parts received
// from every rank (pairwise exchange, P-1 rounds).
func (c *Comm) Alltoallv(r *Rank, parts []Part) []Part {
	me := c.RankOf(r)
	return c.alltoallvOn(r, r.proc, me, parts, c.nextCollTag(me))
}

func (c *Comm) alltoallvOn(r *Rank, proc *simProc, me int, parts []Part, tag int) []Part {
	p := len(c.members)
	if len(parts) != p {
		panic(fmt.Sprintf("mpi: Alltoallv with %d parts on comm of size %d", len(parts), p))
	}
	out := make([]Part, p)
	out[me] = parts[me]
	for round := 1; round < p; round++ {
		dst := (me + round) % p
		src := (me - round + p) % p
		sreq := c.isendFrom(r, proc, dst, tag, parts[dst].Bytes, parts[dst].Data)
		st := c.waitOn(r, proc, c.irecvFor(r, src, tag))
		c.waitOn(r, proc, sreq)
		out[src] = Part{Bytes: st.Bytes, Data: st.Data}
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
