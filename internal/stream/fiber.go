// The stream operations that block — channel setup, the consumer loop and
// channel teardown — in continuation-passing form. This file is their one
// implementation: step-function rank bodies (mpi.World.RunFibers) call the
// F forms directly, and CreateChannel, Operate and Free run them on a
// blocking body's fiber (mpi.Rank.Block). Producer-side calls (Isend,
// IsendTo, Flush, Terminate) never block and have one form.
package stream

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// FOperator is the continuation form of Operator: it processes one arrived
// element and continues with then. Operators that only do bookkeeping
// (no virtual-time consumption) return then directly; operators that
// compute per element return r.FCompute(..., then).
type FOperator func(r *mpi.Rank, elem Element, src int, then sim.StepFunc) sim.StepFunc

// FCreateChannel is CreateChannel in continuation form, delivering the
// established channel to then.
func FCreateChannel(r *mpi.Rank, parent *mpi.Comm, role Role, then func(*Channel) sim.StepFunc) sim.StepFunc {
	me := parent.RankOf(r)
	return parent.FAllgatherv(r, mpi.Part{Bytes: 4, Data: role}, func(roles []mpi.Part) sim.StepFunc {
		ch := newChannel(r, parent, role, me, roles)
		// Sub-communicators for group-internal coordination (consumers use
		// theirs for termination detection).
		prodColor, consColor := groupColors(role)
		return parent.FSplit(r, prodColor, me, func(pc *mpi.Comm) sim.StepFunc {
			ch.prodComm = pc
			return parent.FSplit(r, consColor, me, func(cc *mpi.Comm) sim.StepFunc {
				ch.consComm = cc
				return then(ch)
			})
		})
	})
}

// FFree is Channel.Free in continuation form.
func (ch *Channel) FFree(r *mpi.Rank, then sim.StepFunc) sim.StepFunc {
	me := ch.parent.RankOf(r)
	ch.freeSeq[me]++
	if ch.freeSeq[me] > 1 {
		panic("stream: channel freed twice")
	}
	return ch.parent.FBarrier(r, then)
}

// fexchangeTotals allgathers the per-consumer element totals over the
// consumer group and delivers how many elements this consumer owes.
func (s *Stream) fexchangeTotals(r *mpi.Rank, totals []int64, then func(int64) sim.StepFunc) sim.StepFunc {
	return s.ch.consComm.FAllgatherv(r, mpi.Part{
		Bytes: int64(8 * len(totals)),
		Data:  totals,
	}, func(parts []mpi.Part) sim.StepFunc {
		var expected int64
		for _, part := range parts {
			expected += part.Data.([]int64)[s.consIdx]
		}
		return then(expected)
	})
}

// FOperate is Operate in continuation form, the operator included. The
// final statistics are delivered to then.
//
// Termination detection: each producer's termination record reaches its
// home consumer; once a consumer holds all its home producers' records,
// the consumer group allgathers the per-consumer totals, after which each
// consumer knows exactly how many elements it still owes processing.
func (s *Stream) FOperate(r *mpi.Rank, op FOperator, then func(Stats) sim.StepFunc) sim.StepFunc {
	if s.consIdx < 0 {
		panic("stream: FOperate called on a non-consumer rank")
	}
	if s.opts.FixedOrder {
		return s.foperateFixed(r, op, then)
	}
	c := s.ch.parent
	lo, hi := s.ch.homeProducers(s.consIdx)
	homeTerms := hi - lo
	expected := int64(-1)
	var received int64
	totals := make([]int64, len(s.ch.consumers))

	elemReq := c.Irecv(r, mpi.AnySource, s.elemTag)
	termReq := c.Irecv(r, mpi.AnySource, s.termTag)
	reqs := make([]*mpi.Request, 2)
	// Every continuation of the consumer loop is built here, once: the
	// loop is the per-message hot path of the decoupled experiments, and a
	// closure built inside it would allocate per message (per element, for
	// the batch walker). State the hoisted steps need per message lives in
	// the captured variables (b, ei, waitStart).
	var loop, elems sim.StepFunc
	var onAny func(int, mpi.Status) sim.StepFunc
	var exchanged func(int64) sim.StepFunc
	var b batch
	var ei int
	var waitStart sim.Time
	elems = func(_ *sim.Fiber) sim.StepFunc {
		if ei >= len(b.elems) {
			s.stats.Messages++
			b = batch{}
			elemReq = c.Irecv(r, mpi.AnySource, s.elemTag)
			return loop
		}
		elem := b.elems[ei]
		ei++
		received++
		s.stats.ElementsReceived++
		s.stats.Bytes += elem.Bytes
		if s.stats.FirstAt == 0 {
			s.stats.FirstAt = r.Now()
		}
		s.stats.LastAt = r.Now()
		return op(r, elem, b.src, elems)
	}
	onAny = func(idx int, st mpi.Status) sim.StepFunc {
		s.stats.WaitTime += r.Now() - waitStart
		if idx == 0 {
			b = s.unpack(st)
			ei = 0
			return elems
		}
		tm := st.Data.(termMsg)
		for ci, n := range tm.sentTo {
			totals[ci] += n
		}
		homeTerms--
		if homeTerms > 0 {
			termReq = c.Irecv(r, mpi.AnySource, s.termTag)
			return loop
		}
		// All home producers terminated: agree on global totals. The
		// winning wait consumed (recycled) termReq, so drop the handle —
		// later loop passes must not offer the stale pointer to FWaitAny
		// (nil entries are skipped).
		termReq = nil
		return s.fexchangeTotals(r, totals, exchanged)
	}
	exchanged = func(exp int64) sim.StepFunc {
		expected = exp
		return loop
	}
	loop = func(_ *sim.Fiber) sim.StepFunc {
		if expected >= 0 && received >= expected {
			return then(s.stats)
		}
		waitStart = r.Now()
		reqs[0], reqs[1] = elemReq, termReq
		return c.FWaitAny(r, reqs, onAny)
	}
	if homeTerms == 0 {
		// No producer terminates through this consumer: join the
		// termination exchange immediately (contributing zeros) so the
		// consumer group agrees on per-consumer totals.
		return s.fexchangeTotals(r, totals, exchanged)
	}
	return loop
}

// foperateFixed is the ablation consumer: it drains home producers in a
// fixed round-robin order instead of first-come-first-served, so a slow
// producer stalls consumption of already-arrived data from the others.
func (s *Stream) foperateFixed(r *mpi.Rank, op FOperator, then func(Stats) sim.StepFunc) sim.StepFunc {
	c := s.ch.parent
	type srcState struct {
		pi       int
		elemReq  *mpi.Request
		termReq  *mpi.Request
		finished bool
	}
	var states []*srcState
	for pi, hi := s.ch.homeProducers(s.consIdx); pi < hi; pi++ {
		states = append(states, &srcState{pi: pi})
	}
	remaining := len(states)
	reqs := make([]*mpi.Request, 2)
	si := 0
	// As in FOperate, every continuation is built once, ahead of the
	// loop; the current source (st) and batch (b, ei) live in captured
	// variables since only one wait is ever in flight.
	var pass, elems sim.StepFunc
	var onAny func(int, mpi.Status) sim.StepFunc
	var cur *srcState
	var b batch
	var ei int
	var waitStart sim.Time
	elems = func(_ *sim.Fiber) sim.StepFunc {
		if ei >= len(b.elems) {
			s.stats.Messages++
			b = batch{}
			cur.elemReq = nil
			si++
			return pass
		}
		elem := b.elems[ei]
		ei++
		s.stats.ElementsReceived++
		s.stats.Bytes += elem.Bytes
		if s.stats.FirstAt == 0 {
			s.stats.FirstAt = r.Now()
		}
		s.stats.LastAt = r.Now()
		return op(r, elem, b.src, elems)
	}
	onAny = func(idx int, status mpi.Status) sim.StepFunc {
		s.stats.WaitTime += r.Now() - waitStart
		if idx == 1 {
			// Non-overtaking per (source, tag) plus issue order on
			// the producer guarantee no element follows the term.
			cur.finished = true
			remaining--
			si++
			return pass
		}
		b = s.unpack(status)
		ei = 0
		return elems
	}
	pass = func(_ *sim.Fiber) sim.StepFunc {
		if remaining == 0 {
			return then(s.stats)
		}
		if si >= len(states) {
			si = 0
			return pass
		}
		st := states[si]
		if st.finished {
			si++
			return pass
		}
		src := s.ch.producers[st.pi]
		// Posted requests persist across passes; never double-post.
		if st.elemReq == nil {
			st.elemReq = c.Irecv(r, src, s.elemTag)
		}
		if st.termReq == nil {
			st.termReq = c.Irecv(r, src, s.termTag)
		}
		cur = st
		waitStart = r.Now()
		reqs[0], reqs[1] = st.elemReq, st.termReq
		return c.FWaitAny(r, reqs, onAny)
	}
	return pass
}
