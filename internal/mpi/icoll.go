package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// CollRequest is the handle of a nonblocking collective. The collective's
// algorithm runs on a helper process of the same rank (modelling
// asynchronous progress, as MPICH's progress threads do), so its message
// overheads do not occupy the rank's main process.
//
// The []Part value of an Iallgatherv is the one result slice shared by
// every member of the communicator and must not be modified.
type CollRequest struct {
	done  bool
	value interface{}
	// waiter is the rank's main process or fiber parked in WaitColl on
	// this collective, if any: completion wakes it directly, the
	// per-collective counterpart of Request.waiter.
	waiter sim.Runnable
}

// Done reports whether the collective has completed on this rank.
func (cr *CollRequest) Done() bool { return cr.done }

// startColl spawns the helper process that runs body and completes cr.
func (c *Comm) startColl(r *Rank, kind string, cr *CollRequest, body func(proc *simProc)) {
	r.proc.Spawn(fmt.Sprintf("rank%d/%s", r.rs.rank, kind), func(p *sim.Proc) {
		body(p)
		c.completeColl(r, cr)
	})
	// Initiating a nonblocking collective costs one send overhead on the
	// main process (descriptor setup).
	r.proc.Advance(r.w.cfg.Net.SendOverhead)
}

// completeColl marks the collective done and wakes the rank's main
// process or fiber if it is parked in WaitColl on exactly this collective.
func (c *Comm) completeColl(r *Rank, cr *CollRequest) {
	cr.done = true
	if cr.waiter != nil {
		r.rs.eng.WakeAt(r.rs.eng.Now(), cr.waiter)
		cr.waiter = nil
	}
}

// WaitColl blocks until cr completes and returns its result value:
//
//	Ibarrier   -> nil
//	Ireduce    -> Part (zero Part on non-root ranks)
//	Iallgatherv-> []Part
//	Ialltoallv -> []Part
func (c *Comm) WaitColl(r *Rank, cr *CollRequest) interface{} {
	r.proc.FlushDebt()
	start := r.rs.eng.Now()
	for !cr.done {
		// Register on the collective so its completion wakes exactly this
		// process — the per-collective analogue of Request.waiter.
		cr.waiter = r.proc
		r.proc.Park("mpi waitcoll")
		cr.waiter = nil
	}
	r.traceWait("waitcoll", start)
	return cr.value
}

// TestColl reports whether cr has completed.
func (c *Comm) TestColl(r *Rank, cr *CollRequest) bool { return cr.done }

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier(r *Rank) *CollRequest {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	c.startColl(r, "ibarrier", cr, func(p *simProc) {
		c.barrierOn(r, p, me, tag)
	})
	return cr
}

// Ireduce starts a nonblocking reduce toward root. The result value is a
// Part (meaningful at root only).
func (c *Comm) Ireduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn) *CollRequest {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	c.startColl(r, "ireduce", cr, func(p *simProc) {
		res, isRoot := c.reduceOn(r, p, me, root, part, op, cost, tag)
		if isRoot {
			cr.value = res
		} else {
			cr.value = Part{}
		}
	})
	return cr
}

// Iallgatherv starts a nonblocking allgatherv. The result value is the
// []Part shared by every member (see Allgatherv); it must not be modified.
func (c *Comm) Iallgatherv(r *Rank, part Part) *CollRequest {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	c.startColl(r, "iallgatherv", cr, func(p *simProc) {
		cr.value = c.allgathervOn(r, p, me, part, tag)
	})
	return cr
}

// Ialltoallv starts a nonblocking all-to-all exchange. The result value is
// []Part.
func (c *Comm) Ialltoallv(r *Rank, parts []Part) *CollRequest {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	c.startColl(r, "ialltoallv", cr, func(p *simProc) {
		cr.value = c.alltoallvOn(r, p, me, parts, tag)
	})
	return cr
}

// Iallreduce starts a nonblocking allreduce. The result value is a Part.
func (c *Comm) Iallreduce(r *Rank, part Part, op ReduceOp, cost CostFn) *CollRequest {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	c.startColl(r, "iallreduce", cr, func(p *simProc) {
		cr.value = c.allreduceOn(r, p, me, part, op, cost, tag)
	})
	return cr
}
