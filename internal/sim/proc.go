package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process whose body is ordinary blocking Go code: a
// coroutine that hosts a Fiber. The fiber is what the engine schedules —
// its resume events, its clock debt, its wait-queue entries and its
// deadlock reason are the fiber's own — and the body coroutine is only a
// stack to block on. A blocking call is Await of the step-function form of
// the call (mpi.Rank.Block for the runtime's calls), so there is one
// scheduler and one implementation of each primitive; a body that makes the
// same calls as a step-function body fires the same events at the same
// instants.
//
// Who runs when: simulation code runs on one goroutine at a time. The
// goroutine that called Run fires every event. The body is an iter.Pull
// coroutine on a goroutine of its own, whose sequence yields the step each
// blocking call suspends on. When the hosted fiber reaches the last
// continuation of a blocking call (resume), the engine side calls next,
// which switches to the body until it yields again or returns; while the
// body has control it runs its own code and, inside Await, the steps of the
// call it made, up to the step that suspends the fiber. A blocking call
// that completes without suspending (an inline clock advance, a wait on a
// completed request) therefore costs no switch, and one that suspends
// costs two coroutine switches.
type Proc struct {
	*Fiber
	body  func(*Proc)
	next  func() (StepFunc, bool) // the engine side gives the body control until it yields or returns
	yield func(StepFunc) bool     // the body gives it back, suspended on a step; false once stopped
	halt  func()                  // unwind a parked body: its pending yield returns false

	live    bool        // the body coroutine exists and has not returned
	running bool        // the body coroutine has control
	killed  bool        // unwind at the next Await
	nested  func()      // Blocking: code for the parked body to run
	after   StepFunc    // ... and the step that follows it
	thrown  interface{} // Throw: what the pending Await panics with
}

// stopSignal is panicked in a body to unwind it when its process is killed
// or the engine stops with the body still blocked.
type stopSignal struct{}

// Host gives the fiber a blocking body: the returned step, which the
// fiber's running step must return, starts body as a coroutine of its own.
// It is how a layer that spawns fibers (mpi.World.StartFibers) runs a
// blocking rank body on one of them.
func (f *Fiber) Host(body func(*Proc)) StepFunc {
	p := &Proc{Fiber: f, body: body}
	f.host = p
	return p.start
}

// start is the hosted fiber's first step: create the body coroutine, then
// give it control like any resume.
func (p *Proc) start(*Fiber) StepFunc {
	p.next, p.halt = iter.Pull(p.run)
	p.live = true
	return p.wait()
}

// run is the body coroutine's sequence. A body panic other than a stop is
// re-raised here, and iter.Pull carries it out of next to the goroutine
// that called Run.
func (p *Proc) run(yield func(StepFunc) bool) {
	p.yield = yield
	defer func() {
		p.live = false
		if r := recover(); r != nil {
			if _, stop := r.(stopSignal); !stop {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.body(p)
}

// resume is the last continuation of every blocking call. On the engine
// side it gives the parked body control; when the chain got here without
// suspending, the body is the one running it, and the chain ending tells
// it so.
func (p *Proc) resume(*Fiber) StepFunc {
	if p.running {
		return nil
	}
	return p.wait()
}

// wait gives the body control until it yields again or returns, and
// returns what the hosted fiber continues with: the suspended call's next
// step, or nil at the end of the body.
func (p *Proc) wait() StepFunc {
	p.running = true
	step, _ := p.next()
	p.running = false
	return step
}

// Await runs a chain of fiber steps as one blocking call: call builds the
// chain, ending in the continuation it is given, and Await returns when
// that continuation has run. It is the whole of the blocking API: every
// blocking method here, and every blocking call of the layers above, is
// Await of the step-function form. Await must be called from the body.
func (p *Proc) Await(call func(next StepFunc) StepFunc) {
	if p.killed {
		panic(stopSignal{})
	}
	step := call(p.resume)
	for {
		// The chain runs here until it suspends the fiber or ends in resume.
		for step != nil && !p.susp {
			step = step(p.Fiber)
		}
		if step == nil {
			break
		}
		// Suspended: the engine side keeps step as the fiber's pending
		// continuation, and the body yields until the chain reaches resume
		// or a Blocking step.
		if !p.yield(step) || p.killed {
			panic(stopSignal{})
		}
		if p.nested == nil {
			break
		}
		fn := p.nested
		step, p.nested, p.after = p.after, nil, nil
		fn()
	}
	if v := p.thrown; v != nil {
		p.thrown = nil
		panic(v)
	}
}

// Blocking returns a step that runs fn, which may make blocking calls of
// its own, in the body and continues with next. It is how a blocking
// callback (a stream operator that computes) runs in the middle of the
// chain of the blocking call it was passed to.
func (p *Proc) Blocking(fn func(), next StepFunc) StepFunc {
	return func(*Fiber) StepFunc {
		if p.running {
			fn()
			return next
		}
		p.nested, p.after = fn, next
		return p.wait()
	}
}

// Throw returns the step that ends the pending blocking call by panicking
// with v in the body. The runtime's failure continuation uses it to unwind
// a blocking body to its recovery point.
func (p *Proc) Throw(v interface{}) StepFunc {
	p.thrown = v
	return p.resume
}

// stop releases the body of a process that is being killed or whose
// engine is stopping: parked, it unwinds and returns before stop returns;
// running (a body that killed itself), it unwinds at its next blocking
// call. It reports whether the body is gone.
func (p *Proc) stop() bool {
	if !p.live {
		return true
	}
	p.killed = true
	if p.running {
		return false
	}
	p.halt()
	return true
}

// WakeAt schedules f, a fiber parked by Park or on a WaitQueue, to resume at
// virtual time t. It must be called from simulation context (another
// process or an event callback).
func (e *Engine) WakeAt(t Time, f *Fiber) { e.AtAction(t, f) }

// WaitQueue is a FIFO list of processes blocked on a condition. The zero
// value is ready to use. Signal and Broadcast reuse the backing
// array across fill/drain cycles, so steady-state waiting allocates
// nothing.
type WaitQueue struct {
	waiters []*Fiber
}

// WaitFiber parks f on the queue until Signal or Broadcast releases it,
// then continues with next.
func (q *WaitQueue) WaitFiber(f *Fiber, reason string, next StepFunc) StepFunc {
	if f.debt != 0 {
		panic(fmt.Sprintf("sim: fiber %q waited with %v of unflushed debt", f.name, f.debt))
	}
	q.waiters = append(q.waiters, f)
	return f.ParkKeepingDebt(reason, next)
}

// Signal releases the longest-waiting process, if any, and reports whether
// one was released.
func (q *WaitQueue) Signal(e *Engine) bool {
	if len(q.waiters) == 0 {
		return false
	}
	r := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters[len(q.waiters)-1] = nil
	q.waiters = q.waiters[:len(q.waiters)-1]
	e.WakeAt(e.now, r)
	return true
}

// Broadcast releases all waiting processes in FIFO order. The backing
// array is retained (entries cleared) for reuse by later waiters.
func (q *WaitQueue) Broadcast(e *Engine) {
	for i, r := range q.waiters {
		e.WakeAt(e.now, r)
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
}

// Remove deletes r from the queue preserving FIFO order and reports
// whether it was present. Failure handling uses it to pull a killed
// process out of resource queues so it is never woken post-mortem.
func (q *WaitQueue) Remove(r *Fiber) bool {
	for i, w := range q.waiters {
		if w == r {
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[len(q.waiters)-1] = nil
			q.waiters = q.waiters[:len(q.waiters)-1]
			return true
		}
	}
	return false
}
