// The stream operations that block — channel setup, the consumer loop and
// channel teardown — in continuation-passing form. This file is their one
// implementation: step-function rank bodies (mpi.World.RunFibers) call the
// F forms directly, and CreateChannel, Operate and Free run them on a
// blocking body's fiber (mpi.Rank.Block). Producer-side calls (Isend,
// IsendTo, Terminate) never block and have one form.
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

// arrived decodes one arrived element and counts it in the consumer's
// statistics.
func (s *Stream) arrived(r *mpi.Rank, st mpi.Status) (Element, int) {
	elem, src := s.unpack(st)
	s.stats.ElementsReceived++
	s.stats.Bytes += elem.Bytes
	if s.stats.FirstAt == 0 {
		s.stats.FirstAt = r.Now()
	}
	s.stats.LastAt = r.Now()
	return elem, src
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
	// loop is the per-element hot path of the decoupled experiments, and a
	// closure built inside it would allocate per element. State the
	// hoisted steps need per element lives in captured variables
	// (waitStart).
	var loop, next sim.StepFunc
	var onAny func(int, mpi.Status) sim.StepFunc
	var exchanged func(int64) sim.StepFunc
	var waitStart sim.Time
	// next re-posts the element receive once the operator is done.
	next = func(_ *sim.Fiber) sim.StepFunc {
		elemReq = c.Irecv(r, mpi.AnySource, s.elemTag)
		return loop
	}
	onAny = func(idx int, st mpi.Status) sim.StepFunc {
		s.stats.WaitTime += r.Now() - waitStart
		if idx == 0 {
			elem, src := s.arrived(r, st)
			received++
			return op(r, elem, src, next)
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
	// loop; the current source (cur) lives in a captured variable since
	// only one wait is ever in flight.
	var pass, next sim.StepFunc
	var onAny func(int, mpi.Status) sim.StepFunc
	var cur *srcState
	var waitStart sim.Time
	// next moves on to the next source once the operator is done; the
	// source's element receive is posted again on its next pass.
	next = func(_ *sim.Fiber) sim.StepFunc {
		cur.elemReq = nil
		si++
		return pass
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
		elem, src := s.arrived(r, status)
		return op(r, elem, src, next)
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
