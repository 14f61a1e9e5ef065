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
	// waiter is the rank's main process parked in WaitColl on this
	// collective, if any: completion wakes it directly, the
	// per-collective counterpart of Request.waiter.
	waiter *sim.Fiber
}

// fstartColl starts a nonblocking collective: it draws the collective's
// tag and spawns the helper fiber, which runs the algorithm from run as
// comm rank me and ends in finishColl. Initiating one costs the rank one
// send overhead (descriptor setup), after which the request goes to then.
func (c *Comm) fstartColl(r *Rank, kind string, run func(hf *sim.Fiber, me, tag int, cr *CollRequest) sim.StepFunc,
	then func(*CollRequest) sim.StepFunc) sim.StepFunc {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	cr := &CollRequest{}
	r.rs.eng.SpawnFiber(fmt.Sprintf("rank%d/%s", r.rs.rank, kind), func(hf *sim.Fiber) sim.StepFunc {
		return run(hf, me, tag, cr)
	})
	return r.fib.Advance(fabric.SendOverhead, func(*sim.Fiber) sim.StepFunc { return then(cr) })
}

// finishColl ends a helper: mark the collective done and wake the rank's
// main process if it is parked in WaitColl on exactly this collective.
func (c *Comm) finishColl(r *Rank, cr *CollRequest) sim.StepFunc {
	cr.done = true
	if cr.waiter != nil {
		r.rs.eng.WakeAt(r.rs.eng.Now(), cr.waiter)
		cr.waiter = nil
	}
	return nil
}

// WaitColl blocks until cr completes and returns its result value:
//
//	Ibarrier   -> nil
//	Ireduce    -> Part (zero Part on non-root ranks)
//	Iallgatherv-> []Part
func (c *Comm) WaitColl(r *Rank, cr *CollRequest) interface{} {
	return Await(r, "WaitColl", func(then func(interface{}) sim.StepFunc) sim.StepFunc { return c.FWaitColl(r, cr, then) })
}

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier(r *Rank) *CollRequest {
	return Await(r, "Ibarrier", func(then func(*CollRequest) sim.StepFunc) sim.StepFunc {
		return c.fstartColl(r, "ibarrier", func(hf *sim.Fiber, me, tag int, cr *CollRequest) sim.StepFunc {
			return c.fbarrierOn(r, hf, me, tag, func(*sim.Fiber) sim.StepFunc { return c.finishColl(r, cr) })
		}, then)
	})
}

// Ireduce starts a nonblocking reduce toward root. The result value is a
// Part (meaningful at root only).
func (c *Comm) Ireduce(r *Rank, root int, part Part, op ReduceOp, cost CostFn) *CollRequest {
	return Await(r, "Ireduce", func(then func(*CollRequest) sim.StepFunc) sim.StepFunc {
		return c.FIreduce(r, root, part, op, cost, then)
	})
}

// Iallgatherv starts a nonblocking allgatherv. The result value is the
// []Part shared by every member (see Allgatherv); it must not be modified.
func (c *Comm) Iallgatherv(r *Rank, part Part) *CollRequest {
	return Await(r, "Iallgatherv", func(then func(*CollRequest) sim.StepFunc) sim.StepFunc {
		return c.FIallgatherv(r, part, then)
	})
}
