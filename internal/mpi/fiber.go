// The waits and collectives of the runtime, in continuation-passing form.
//
// This file is the one implementation of every operation that can block:
// debt floors, settle targets, the order in which requests are posted and
// waited on. Step-function rank bodies (World.RunFibers) call the F forms
// directly; the blocking calls in p2p.go, coll.go and icoll.go run the
// same F forms on the rank's fiber and suspend the body's coroutine until
// the last continuation (Rank.Block), so a body written either way fires
// the same events at the same instants and reports the same spans to a
// Tracer: a blocking call has no code of its own to diverge.
//
// A wait that cannot complete stores itself on the request (the
// Request.waiter slot delivery resumes) and returns, unwinding to the
// engine loop. Delivery then resumes the fiber with a plain function call,
// once, at the instant the wait settles to — no goroutine switch anywhere
// on a message path between step-function bodies.
package mpi

import "repro/internal/sim"

// FIsend is Isend, which never blocks; the alias keeps step-function
// bodies visually uniform.
func (c *Comm) FIsend(r *Rank, dst, tag int, bytes int64, data interface{}) *Request {
	return c.Isend(r, dst, tag, bytes, data)
}

// FWait completes req, charges the receive overhead of a completed
// receive to the caller, and continues with then(status).
func (c *Comm) FWait(r *Rank, req *Request, then func(Status) sim.StepFunc) sim.StepFunc {
	return c.fwaitOn(r, r.fib, req, then)
}

// fwait is the pooled state of one fiber wait: the closure environment of
// fwaitOn hand-hoisted into a struct so the steady-state wait path
// allocates nothing. The step fields hold bound-method values created
// once per struct lifetime; the struct recycles through the world's
// single-threaded freelist when the wait settles.
type fwait struct {
	r        *Rank
	f        *sim.Fiber
	req      *Request
	floor    sim.Time
	then     func(Status) sim.StepFunc // exactly one of then/thenStep is set
	thenStep sim.StepFunc
	ov       sim.Time

	check  sim.StepFunc // bound s.checkStep
	wake   sim.StepFunc // bound s.wakeStep
	settle sim.StepFunc // bound s.settleStep
}

// newFwait readies a pooled (or fresh) wait state.
func (w *World) newFwait(r *Rank, f *sim.Fiber, req *Request, then func(Status) sim.StepFunc, thenStep sim.StepFunc) *fwait {
	pl := r.rs.pool
	var s *fwait
	if n := len(pl.fwFree); n > 0 {
		s = pl.fwFree[n-1]
		pl.fwFree = pl.fwFree[:n-1]
	} else {
		s = &fwait{}
		s.check = s.checkStep
		s.wake = s.wakeStep
		s.settle = s.settleStep
	}
	s.r, s.f, s.req, s.then, s.thenStep = r, f, req, then, thenStep
	s.floor = r.rs.eng.Now() + f.Debt()
	s.ov = fabric.RecvOverhead
	return s
}

// checkStep parks on the request if it is still pending, else folds
// floor, completion instant and receive overhead into one settling
// advance.
func (s *fwait) checkStep(_ *sim.Fiber) sim.StepFunc {
	req := s.req
	req.checkLive()
	if !req.done && !req.timed {
		// The park registers this wait on the request, so delivery
		// resumes exactly this fiber at exactly the right instant.
		req.waiter = s
		return s.f.ParkKeepingDebt("mpi wait", s.wake)
	}
	e := s.r.rs.eng
	target := e.Now()
	if s.floor > target {
		target = s.floor
	}
	if req.status.Err != nil {
		// Completed by peer failure: settle the clock (debt must not leak
		// into the recovery path), recycle the wait state — the request
		// itself is abandoned, not recycled — and surface the failure
		// through the rank's failure continuation or a panic.
		r, f := s.r, s.f
		s.r, s.f, s.req, s.then, s.thenStep = nil, nil, nil, nil, nil
		r.rs.pool.fwFree = append(r.rs.pool.fwFree, s)
		return f.SettleTo(target, r.failNow())
	}
	if req.timed && req.doneAt > target {
		target = req.doneAt
	}
	req.done = true
	if req.isRecv && !req.ovCharged {
		req.ovCharged = true
		target += s.ov
	}
	return s.f.SettleTo(target, s.settle)
}

func (s *fwait) wakeStep(_ *sim.Fiber) sim.StepFunc {
	s.req.waiter = nil
	return s.check
}

// resumeAt is delivery binding a message that becomes ready at the
// future instant ready to the parked wait's request. What checkStep would
// compute on a wake at ready is already known — the request completes
// cleanly at ready, so the wait settles at max(ready, floor) plus the
// receive overhead — so the fiber resumes once, at that instant, straight
// into the settle step. The failure sweeps and completions at the current
// instant still wake it into checkStep.
func (s *fwait) resumeAt(ready sim.Time) {
	req := s.req
	req.waiter = nil
	target := sim.Max(ready, s.floor)
	if req.isRecv && !req.ovCharged {
		req.ovCharged = true
		target += s.ov
	}
	s.f.ResumeAt(target, s.settle)
}

// settleStep finishes the wait: recycle the state and the consumed
// request, then run the caller's continuation.
func (s *fwait) settleStep(_ *sim.Fiber) sim.StepFunc {
	if s.f == s.r.rs.fib {
		// Helper processes (nonblocking collectives) wait unobserved: the
		// timeline shows what the rank's main process is blocked on.
		s.r.traceWait("wait", s.floor)
	}
	then, thenStep, st, pl := s.then, s.thenStep, s.req.status, s.r.rs.pool
	pl.freeRequest(s.req)
	s.r, s.f, s.req, s.then, s.thenStep = nil, nil, nil, nil, nil
	pl.fwFree = append(pl.fwFree, s)
	if then != nil {
		return then(st)
	}
	return thenStep
}

// fwaitOn waits for req on f. floor, the earliest instant the waiter can
// observe anything, is entry time plus the CPU debt it owes; the debt
// rides through the park (its busy window overlaps the blocked period),
// and a single settling advance folds floor, completion instant and
// receive overhead together — one suspension for the whole wait, however
// the request completes.
func (c *Comm) fwaitOn(r *Rank, f *sim.Fiber, req *Request, then func(Status) sim.StepFunc) sim.StepFunc {
	return c.w.newFwait(r, f, req, then, nil).check
}

// fwaitOnStep is fwaitOn for continuations that ignore the status,
// avoiding a wrapper closure on the hot send-wait path.
func (c *Comm) fwaitOnStep(r *Rank, f *sim.Fiber, req *Request, then sim.StepFunc) sim.StepFunc {
	return c.w.newFwait(r, f, req, nil, then).check
}

// FSend is the blocking send: FIsend then FWait.
func (c *Comm) FSend(r *Rank, dst, tag int, bytes int64, data interface{}, then sim.StepFunc) sim.StepFunc {
	req := c.FIsend(r, dst, tag, bytes, data)
	return c.fwaitOnStep(r, r.fib, req, then)
}

// FRecv is the blocking receive: Irecv then FWait.
func (c *Comm) FRecv(r *Rank, src, tag int, then func(Status) sim.StepFunc) sim.StepFunc {
	checkAppTag("FRecv", tag)
	req := c.irecvFor(r, src, tag)
	return c.fwaitOn(r, r.fib, req, then)
}

// fwaitAll is the pooled closure environment of FWaitAll.
type fwaitAll struct {
	c    *Comm
	r    *Rank
	f    *sim.Fiber
	reqs []*Request
	out  []Status
	then func([]Status) sim.StepFunc
	i    int
	cur  int // slot index of the wait in flight

	loop sim.StepFunc              // bound s.loopStep
	slot func(Status) sim.StepFunc // bound s.slotStep
	fin  sim.StepFunc              // bound s.finStep
}

func (s *fwaitAll) loopStep(_ *sim.Fiber) sim.StepFunc {
	e := s.r.rs.eng
	ov := fabric.RecvOverhead
	for s.i < len(s.reqs) {
		q := s.reqs[s.i]
		q.checkLive()
		// Fast path: complete as of now plus pending debt; coalesce the
		// receive overhead as debt. (Timed send completions compare
		// against the post-flush clock, matching what a full wait would
		// observe.) Requests completed by peer failure take the full
		// wait, which surfaces the error.
		if q.status.Err == nil && (q.done || (q.timed && q.doneAt <= e.Now()+s.f.Debt())) {
			q.done = true
			if q.isRecv && !q.ovCharged {
				q.ovCharged = true
				s.f.AddDebt(ov)
			}
			s.out[s.i] = q.status
			s.r.rs.pool.freeRequest(q)
			s.i++
			continue
		}
		s.cur = s.i
		s.i++
		return s.c.fwaitOn(s.r, s.f, q, s.slot)
	}
	return s.f.FlushDebt(s.fin)
}

func (s *fwaitAll) slotStep(st Status) sim.StepFunc {
	s.out[s.cur] = st
	return s.loop
}

func (s *fwaitAll) finStep(_ *sim.Fiber) sim.StepFunc {
	then, out, pl := s.then, s.out, s.r.rs.pool
	s.c, s.r, s.f, s.reqs, s.out, s.then = nil, nil, nil, nil, nil, nil
	pl.fwAllFree = append(pl.fwAllFree, s)
	return then(out)
}

// FWaitAll waits for every request in order: already-complete requests
// settle without suspending and coalesce their receive overheads as debt;
// pending ones get a full wait. Statuses land in the rank's reusable
// scratch slice (see WaitAll for the ownership rule).
func (c *Comm) FWaitAll(r *Rank, reqs []*Request, then func([]Status) sim.StepFunc) sim.StepFunc {
	pl := r.rs.pool
	var s *fwaitAll
	if n := len(pl.fwAllFree); n > 0 {
		s = pl.fwAllFree[n-1]
		pl.fwAllFree = pl.fwAllFree[:n-1]
	} else {
		s = &fwaitAll{}
		s.loop = s.loopStep
		s.slot = s.slotStep
		s.fin = s.finStep
	}
	s.c, s.r, s.f, s.reqs, s.then = c, r, r.fib, reqs, then
	s.out = r.rs.statusScratch(len(reqs))
	s.i = 0
	return s.loop
}

// fwaitAny is the pooled closure environment of FWaitAny. Its embedded
// waker is what the pending requests register: one resume event per wake.
type fwaitAny struct {
	c     *Comm
	r     *Rank
	f     *sim.Fiber
	reqs  []*Request
	then  func(int, Status) sim.StepFunc
	start sim.Time // post-flush entry instant, where the waitany span opens
	won   int      // index whose receive overhead is being charged
	armed bool     // wk is armed and may be registered on requests
	wk    sim.Waker

	loop    sim.StepFunc // bound s.loopStep
	charged sim.StepFunc // bound s.chargedStep
}

func (s *fwaitAny) loopStep(_ *sim.Fiber) sim.StepFunc {
	e := s.r.rs.eng
	now := e.Now()
	var minTimed sim.Time = -1
	won := -1
	for i, q := range s.reqs {
		if q == nil {
			continue
		}
		q.checkLive()
		if s.armed && q.anyw == &s.wk {
			q.anyw = nil
		}
		if won < 0 && q.completedBy(now) {
			won = i
			// Keep scanning: later requests may still hold the waker.
			continue
		}
		if q.timed && (minTimed < 0 || q.doneAt < minTimed) {
			minTimed = q.doneAt
		}
	}
	if won >= 0 {
		q := s.reqs[won]
		if q.status.Err != nil {
			// Completed by peer failure (debt was flushed at entry, so the
			// clock is settled). Recycle the wait state, abandon the
			// request, surface the failure.
			if s.armed {
				s.armed = false
				s.wk.Disarm()
			}
			r := s.r
			s.c, s.r, s.f, s.reqs, s.then = nil, nil, nil, nil, nil
			r.rs.pool.fwAnyFree = append(r.rs.pool.fwAnyFree, s)
			return r.failNow()
		}
		q.done = true
		if q.isRecv && !q.ovCharged {
			q.ovCharged = true
			s.won = won
			return s.f.Advance(fabric.RecvOverhead, s.charged)
		}
		return s.finish(won)
	}
	if minTimed >= 0 {
		// A send will complete at a known instant; a receive may
		// complete during the advance and wins the next scan.
		return s.f.AdvanceTo(minTimed, s.loop)
	}
	if !s.armed {
		s.armed = true
		s.wk.Arm(e, s.f)
	}
	for _, q := range s.reqs {
		if q != nil && !q.done && !q.timed {
			q.anyw = &s.wk
		}
	}
	return s.f.Park("mpi waitany", s.loop)
}

func (s *fwaitAny) chargedStep(_ *sim.Fiber) sim.StepFunc {
	return s.finish(s.won)
}

// finish recycles the state and the consumed winning request, then runs
// the caller's continuation with the winning index and status. The
// post-wake scan in loopStep already deregistered the waker from every
// surviving request.
func (s *fwaitAny) finish(i int) sim.StepFunc {
	if s.armed {
		s.armed = false
		s.wk.Disarm()
	}
	s.r.traceWait("waitany", s.start)
	then, st, pl := s.then, s.reqs[i].status, s.r.rs.pool
	pl.freeRequest(s.reqs[i])
	s.c, s.r, s.f, s.reqs, s.then = nil, nil, nil, nil, nil
	pl.fwAnyFree = append(pl.fwAnyFree, s)
	return then(i, st)
}

// FWaitAny flushes debt, then repeatedly scans for the lowest completed
// index, advancing to the earliest pending timed completion or, when
// nothing is in sight, registering its waker on every pending request and
// parking: the first completion resumes exactly this process at exactly
// the completion instant — no wake per unrelated message. A wake implies
// a completed request, so the process parks at most once per call and the
// post-wake scan doubles as deregistration. Completed receives charge the
// receive overhead exactly once.
func (c *Comm) FWaitAny(r *Rank, reqs []*Request, then func(int, Status) sim.StepFunc) sim.StepFunc {
	if len(reqs) == 0 {
		panic("mpi: FWaitAny with no requests")
	}
	pl := r.rs.pool
	var s *fwaitAny
	if n := len(pl.fwAnyFree); n > 0 {
		s = pl.fwAnyFree[n-1]
		pl.fwAnyFree = pl.fwAnyFree[:n-1]
	} else {
		s = &fwaitAny{}
		s.loop = s.loopStep
		s.charged = s.chargedStep
	}
	s.c, s.r, s.f, s.reqs, s.then = c, r, r.fib, reqs, then
	s.start = r.rs.eng.Now() + s.f.Debt()
	return s.f.FlushDebt(s.loop)
}

// fcoll is the pooled state of one fiber barrier, broadcast, reduce,
// allreduce or allgatherv: the closure environment of the collective's
// rounds hoisted into a struct, as fwait is for a wait, so a collective
// allocates nothing per round and nothing per call once the pool is warm,
// whatever the communicator size (an allgatherv's one shared result
// aside). One round is in flight at a time, so one set of
// round fields serves every round. The struct returns to the rank's pool
// just before the caller's continuation runs.
type fcoll struct {
	c   *Comm
	r   *Rank
	f   *sim.Fiber // the rank's fiber, or the helper fiber of an FIreduce
	me  int
	p   int
	tag int

	root, vr int    // tree collectives: the root, and me relative to it
	mask     int    // dissemination distance, tree mask, doubling mask or ring round
	peer     int    // allreduce: this round's partner
	acc      Part   // the running reduction, or the part being broadcast
	got      Status // reduce, allreduce, allgatherv: what this round received
	op       ReduceOp
	cost     CostFn
	// sreq is the allreduce's and the allgatherv's send, posted with its
	// round's receive and waited on after it.
	sreq *Request
	// gather is the allgatherv's shared result.
	gather *gatherState
	// bcastAfter marks the allreduce of a non-power-of-two communicator: a
	// reduce to rank 0 whose result is then broadcast on the same tag.
	bcastAfter bool

	// The caller's continuation: exactly one is set.
	thenStep  sim.StepFunc                  // barrier
	thenPart  func(Part) sim.StepFunc       // bcast, allreduce
	thenRoot  func(Part, bool) sim.StepFunc // reduce
	thenParts func([]Part) sim.StepFunc     // allgatherv

	steps fcollSteps
}

// fcollSteps holds an fcoll's bound-method values, created once per struct
// lifetime.
type fcollSteps struct {
	barRound                 sim.StepFunc
	bcSend                   sim.StepFunc
	bcRecvd                  func(Status) sim.StepFunc
	rdRound, rdSent, rdApply sim.StepFunc
	rdRecvd                  func(Status) sim.StepFunc
	arRound, arSent, arApply sim.StepFunc
	arRecvd                  func(Status) sim.StepFunc
	agRound, agSent          sim.StepFunc
	agRecvd                  func(Status) sim.StepFunc
}

// newFcoll readies a pooled (or fresh) collective state for a call by
// comm rank me on fiber f.
func (c *Comm) newFcoll(r *Rank, f *sim.Fiber, me, tag int) *fcoll {
	pl := r.rs.pool
	var s *fcoll
	if n := len(pl.fcFree); n > 0 {
		s = pl.fcFree[n-1]
		pl.fcFree = pl.fcFree[:n-1]
	} else {
		s = &fcoll{}
		s.steps = fcollSteps{
			barRound: s.barRound,
			bcSend:   s.bcSend, bcRecvd: s.bcRecvd,
			rdRound: s.rdRound, rdSent: s.rdSent, rdApply: s.rdApply, rdRecvd: s.rdRecvd,
			arRound: s.arRound, arSent: s.arSent, arApply: s.arApply, arRecvd: s.arRecvd,
			agRound: s.agRound, agSent: s.agSent, agRecvd: s.agRecvd,
		}
	}
	s.c, s.r, s.f, s.me, s.p, s.tag = c, r, f, me, len(c.members), tag
	s.mask = 1
	return s
}

// release returns the state to the pool of the rank's shard. Callers copy
// out what the continuation needs first.
func (s *fcoll) release() {
	pl := s.r.rs.pool
	*s = fcoll{steps: s.steps}
	pl.fcFree = append(pl.fcFree, s)
}

// send posts this round's send of acc to comm rank dst.
func (s *fcoll) send(dst int) *Request {
	return s.c.isendOv(s.r, s.f, dst, s.tag, s.acc.Bytes, s.acc.Data, fabric.SendOverhead)
}

// FBarrier is Barrier in continuation form.
func (c *Comm) FBarrier(r *Rank, then sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	return c.fbarrierOn(r, r.fib, me, c.nextCollTag(me), then)
}

func (c *Comm) fbarrierOn(r *Rank, f *sim.Fiber, me, tag int, then sim.StepFunc) sim.StepFunc {
	s := c.newFcoll(r, f, me, tag)
	s.thenStep = then
	return s.steps.barRound
}

func (s *fcoll) barRound(_ *sim.Fiber) sim.StepFunc {
	if s.mask >= s.p {
		then := s.thenStep
		s.release()
		return then
	}
	dst := (s.me + s.mask) % s.p
	src := (s.me - s.mask + s.p) % s.p
	s.mask <<= 1
	sreq := s.send(dst)
	rreq := s.c.irecvFor(s.r, src, s.tag)
	// The send completes at an instant known at issue, which is all its
	// wait would settle to: it becomes the floor of the receive's wait
	// instead of a suspension of its own, and keeps its span. On a revoked
	// world both requests fail at once, and the receive's wait surfaces
	// the failure at the instant the send's would have.
	start := s.r.rs.eng.Now() + s.f.Debt()
	sent := sim.Max(start, sreq.doneAt)
	if s.f == s.r.rs.fib {
		s.r.traceWaitUntil("wait", start, sent)
	}
	s.r.rs.pool.freeRequest(sreq)
	ws := s.c.w.newFwait(s.r, s.f, rreq, nil, s.steps.barRound)
	ws.floor = sent
	return ws.check
}

// FBcast is Bcast in continuation form: binomial tree, result delivered
// to then.
func (c *Comm) FBcast(r *Rank, root int, part Part, then func(Part) sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	return c.fbcastOn(r, r.fib, me, root, part, c.nextCollTag(me), then)
}

func (c *Comm) fbcastOn(r *Rank, f *sim.Fiber, me, root int, part Part, tag int, then func(Part) sim.StepFunc) sim.StepFunc {
	p := len(c.members)
	if p == 1 {
		return then(part)
	}
	s := c.newFcoll(r, f, me, tag)
	s.root, s.vr = root, (me-root+p)%p
	s.acc, s.thenPart = part, then
	return s.bcast()
}

// bcast starts the broadcast of acc from root: receive from the parent at
// the lowest set bit of vr, if any, then send down the masks below it.
func (s *fcoll) bcast() sim.StepFunc {
	for mask := 1; mask < s.p; mask <<= 1 {
		if s.vr&mask != 0 {
			s.mask = mask >> 1
			src := (s.vr - mask + s.root) % s.p
			return s.c.fwaitOn(s.r, s.f, s.c.irecvFor(s.r, src, s.tag), s.steps.bcRecvd)
		}
	}
	// The root sends from the highest mask below p.
	top := 1
	for top < s.p {
		top <<= 1
	}
	s.mask = top >> 1
	return s.steps.bcSend
}

func (s *fcoll) bcRecvd(st Status) sim.StepFunc {
	s.acc = Part{Bytes: st.Bytes, Data: st.Data}
	return s.steps.bcSend
}

func (s *fcoll) bcSend(_ *sim.Fiber) sim.StepFunc {
	for s.mask > 0 {
		mask := s.mask
		s.mask >>= 1
		if s.vr&mask == 0 && s.vr+mask < s.p {
			req := s.send((s.vr + mask + s.root) % s.p)
			return s.c.fwaitOnStep(s.r, s.f, req, s.steps.bcSend)
		}
	}
	then, part := s.thenPart, s.acc
	s.release()
	return then(part)
}

// FReduce is Reduce in continuation form: binomial tree toward root,
// delivering (part, isRoot) to then.
func (c *Comm) FReduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn, then func(Part, bool) sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	return c.freduceOn(r, r.fib, me, root, part, op, cost, c.nextCollTag(me), then)
}

func (c *Comm) freduceOn(r *Rank, f *sim.Fiber, me, root int, part Part, op ReduceOp, cost CostFn, tag int, then func(Part, bool) sim.StepFunc) sim.StepFunc {
	p := len(c.members)
	if p == 1 {
		return then(part, true)
	}
	s := c.newFcoll(r, f, me, tag)
	s.root, s.vr = root, (me-root+p)%p
	s.acc, s.op, s.cost, s.thenRoot = part, op, cost, then
	return s.steps.rdRound
}

func (s *fcoll) rdRound(_ *sim.Fiber) sim.StepFunc {
	for s.mask < s.p {
		if s.vr&s.mask != 0 {
			req := s.send((s.vr - s.mask + s.root) % s.p)
			return s.c.fwaitOnStep(s.r, s.f, req, s.steps.rdSent)
		}
		if peer := s.vr | s.mask; peer < s.p {
			rreq := s.c.irecvFor(s.r, (peer+s.root)%s.p, s.tag)
			return s.c.fwaitOn(s.r, s.f, rreq, s.steps.rdRecvd)
		}
		s.mask <<= 1
	}
	return s.reduced(s.acc, true)
}

func (s *fcoll) rdSent(_ *sim.Fiber) sim.StepFunc { return s.reduced(Part{}, false) }

func (s *fcoll) rdRecvd(st Status) sim.StepFunc {
	s.got = st
	if s.cost != nil {
		return s.f.Advance(s.cost(s.acc.Bytes+st.Bytes), s.steps.rdApply)
	}
	return s.steps.rdApply
}

func (s *fcoll) rdApply(_ *sim.Fiber) sim.StepFunc {
	s.acc = Part{Bytes: maxI64(s.acc.Bytes, s.got.Bytes), Data: s.op(s.acc.Data, s.got.Data)}
	s.got = Status{}
	s.mask <<= 1
	return s.steps.rdRound
}

// reduced ends the reduce phase: a plain reduce delivers (res, isRoot); an
// allreduce broadcasts rank 0's result on the same tag.
func (s *fcoll) reduced(res Part, isRoot bool) sim.StepFunc {
	if s.bcastAfter {
		s.acc = res
		return s.bcast()
	}
	then := s.thenRoot
	s.release()
	return then(res, isRoot)
}

// FAllreduce is Allreduce in continuation form: recursive doubling for
// power-of-two sizes, reduce-to-0 plus broadcast otherwise, combining in
// rank order.
func (c *Comm) FAllreduce(r *Rank, part Part, op ReduceOp, cost CostFn, then func(Part) sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	return c.fallreduceOn(r, r.fib, me, part, op, cost, c.nextCollTag(me), then)
}

func (c *Comm) fallreduceOn(r *Rank, f *sim.Fiber, me int, part Part, op ReduceOp, cost CostFn, tag int, then func(Part) sim.StepFunc) sim.StepFunc {
	p := len(c.members)
	if p == 1 {
		return then(part)
	}
	s := c.newFcoll(r, f, me, tag)
	s.acc, s.op, s.cost, s.thenPart = part, op, cost, then
	if p&(p-1) == 0 {
		return s.steps.arRound
	}
	s.vr, s.bcastAfter = me, true // root 0
	return s.steps.rdRound
}

func (s *fcoll) arRound(_ *sim.Fiber) sim.StepFunc {
	if s.mask >= s.p {
		then, acc := s.thenPart, s.acc
		s.release()
		return then(acc)
	}
	s.peer = s.me ^ s.mask
	s.sreq = s.send(s.peer)
	return s.c.fwaitOn(s.r, s.f, s.c.irecvFor(s.r, s.peer, s.tag), s.steps.arRecvd)
}

func (s *fcoll) arRecvd(st Status) sim.StepFunc {
	s.got = st
	return s.c.fwaitOnStep(s.r, s.f, s.sreq, s.steps.arSent)
}

func (s *fcoll) arSent(_ *sim.Fiber) sim.StepFunc {
	if s.cost != nil {
		return s.f.Advance(s.cost(s.acc.Bytes+s.got.Bytes), s.steps.arApply)
	}
	return s.steps.arApply
}

func (s *fcoll) arApply(_ *sim.Fiber) sim.StepFunc {
	// Combine in rank order for cross-rank determinism.
	a, b := s.acc.Data, s.got.Data
	if s.peer < s.me {
		a, b = b, a
	}
	s.acc = Part{Bytes: maxI64(s.acc.Bytes, s.got.Bytes), Data: s.op(a, b)}
	s.got = Status{}
	s.mask <<= 1
	return s.steps.arRound
}

// FAllgatherv is Allgatherv in continuation form: recursive doubling for
// power-of-two sizes, a ring otherwise. The
// slice delivered to then is the result shared by every member and must
// not be modified.
func (c *Comm) FAllgatherv(r *Rank, part Part, then func([]Part) sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	return c.fallgathervOn(r, r.fib, me, part, c.nextCollTag(me), then)
}

func (c *Comm) fallgathervOn(r *Rank, f *sim.Fiber, me int, part Part, tag int, then func([]Part) sim.StepFunc) sim.StepFunc {
	p := len(c.members)
	if p == 1 {
		return then([]Part{part})
	}
	s := c.newFcoll(r, f, me, tag)
	s.gather = c.gatherEnter(me, tag, part)
	s.acc = Part{Bytes: part.Bytes} // the parts travel through s.gather
	s.thenParts = then
	return s.steps.agRound
}

// agRound is one allgatherv round. Recursive doubling exchanges with
// me^mask and accumulates the byte count; the ring sends right, receives
// from the left and forwards the neighbour's latest part, counting its
// P-1 rounds in mask.
func (s *fcoll) agRound(_ *sim.Fiber) sim.StepFunc {
	if s.mask >= s.p {
		then, res := s.thenParts, s.c.gatherLeave(s.tag, s.gather)
		s.release()
		return then(res)
	}
	dst, src := (s.me+1)%s.p, (s.me-1+s.p)%s.p
	if s.p&(s.p-1) == 0 {
		dst, src = s.me^s.mask, s.me^s.mask
	}
	s.sreq = s.send(dst)
	return s.c.fwaitOn(s.r, s.f, s.c.irecvFor(s.r, src, s.tag), s.steps.agRecvd)
}

func (s *fcoll) agRecvd(st Status) sim.StepFunc {
	s.got = st
	return s.c.fwaitOnStep(s.r, s.f, s.sreq, s.steps.agSent)
}

func (s *fcoll) agSent(_ *sim.Fiber) sim.StepFunc {
	if s.p&(s.p-1) == 0 {
		s.acc.Bytes += s.got.Bytes
		s.mask <<= 1
	} else {
		s.acc.Bytes = s.got.Bytes
		s.mask++
	}
	s.got = Status{}
	return s.steps.agRound
}

// FSplit is Split in continuation form: the rendezvous costs a barrier on
// the parent communicator, which is roughly what MPI_Comm_split costs (an
// allgather of (color, key)), and cannot complete before every member has
// registered its entry, so st.result is materialized when it does. The
// child communicator (nil for color < 0) is delivered to then.
func (c *Comm) FSplit(r *Rank, color, key int, then func(*Comm) sim.StepFunc) sim.StepFunc {
	st := c.splitRegister(r, color, key)
	me := c.RankOf(r)
	return c.fbarrierOn(r, r.fib, me, c.nextCollTag(me), func(_ *sim.Fiber) sim.StepFunc {
		if color < 0 {
			return then(nil)
		}
		return then(st.result[color])
	})
}

// FIreduce is Ireduce in continuation form: the reduce runs on a helper
// fiber, and the initiating rank pays one send overhead before continuing
// with then(cr).
func (c *Comm) FIreduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn, then func(*CollRequest) sim.StepFunc) sim.StepFunc {
	return c.fstartColl(r, "ireduce", func(hf *sim.Fiber, me, tag int, cr *CollRequest) sim.StepFunc {
		return c.freduceOn(r, hf, me, root, part, op, cost, tag, func(res Part, isRoot bool) sim.StepFunc {
			if isRoot {
				cr.value = res
			} else {
				cr.value = Part{}
			}
			return c.finishColl(r, cr)
		})
	}, then)
}

// FIallgatherv is Iallgatherv in continuation form; the []Part result is
// the slice shared by every member and must not be modified.
func (c *Comm) FIallgatherv(r *Rank, part Part, then func(*CollRequest) sim.StepFunc) sim.StepFunc {
	return c.fstartColl(r, "iallgatherv", func(hf *sim.Fiber, me, tag int, cr *CollRequest) sim.StepFunc {
		return c.fallgathervOn(r, hf, me, part, tag, func(parts []Part) sim.StepFunc {
			cr.value = parts
			return c.finishColl(r, cr)
		})
	}, then)
}

// FWaitColl is WaitColl in continuation form, delivering the collective's
// result value to then.
func (c *Comm) FWaitColl(r *Rank, cr *CollRequest, then func(interface{}) sim.StepFunc) sim.StepFunc {
	f := r.fib
	start := r.rs.eng.Now() + f.Debt() // the post-flush instant
	var loop sim.StepFunc
	loop = func(_ *sim.Fiber) sim.StepFunc {
		if !cr.done {
			// finishColl clears the registration when it wakes us.
			cr.waiter = f
			return f.Park("mpi waitcoll", loop)
		}
		r.traceWait("waitcoll", start)
		return then(cr.value)
	}
	return f.FlushDebt(loop)
}
