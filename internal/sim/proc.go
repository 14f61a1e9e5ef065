package sim

import "fmt"

// Proc is a simulated process whose body is ordinary blocking Go code: a
// goroutine that hosts a Fiber. The fiber is what the engine schedules —
// its resume events, its clock debt, its wait-queue entries and its
// deadlock reason are the fiber's own — and the body goroutine is only a
// stack to block on. A blocking call is Await of the step-function form of
// the call (mpi.Rank.Block for the runtime's calls), so there is one
// scheduler and one implementation of each primitive; a body that makes the
// same calls as a step-function body fires the same events at the same
// instants.
//
// Who runs when: simulation code runs on one goroutine at a time. The
// goroutine that called Run fires every event. When the hosted fiber
// reaches the last continuation of a blocking call (resume), that
// goroutine hands control to the body goroutine and sleeps until the body
// blocks again or returns; while the body has control it runs its own
// code and, inside Await, the steps of the call it made, up to the step
// that suspends the fiber. A blocking call that completes without
// suspending (an inline clock advance, a wait on a completed request)
// therefore costs no goroutine switch, and one that suspends costs two.
type Proc struct {
	*Fiber
	body   func(*Proc)
	toBody chan struct{} // the engine side gives the body goroutine control
	toHost chan struct{} // the body goroutine gives it back: blocked, or exited

	live     bool        // the body goroutine exists and has not exited
	running  bool        // the body goroutine has control
	killed   bool        // unwind at the next Await
	step     StepFunc    // what the hosted fiber continues with once the body gives control back
	nested   func()      // Blocking: code for the parked body goroutine to run
	after    StepFunc    // ... and the step that follows it
	thrown   interface{} // Throw: what the pending Await panics with
	panicked interface{} // what the body panicked with, for wait to re-raise
}

// stopSignal is panicked on a body goroutine to unwind it when its process
// is killed or the engine stops with the body still blocked.
type stopSignal struct{}

// spawn creates a process executing the blocking body, numbered like a
// fiber from SpawnFiber. The runtime hosts its blocking bodies on fibers it
// spawns itself (Fiber.Host); the engine's tests spawn them here.
func (e *Engine) spawn(name string, body func(*Proc)) *Proc {
	p := newProc(body)
	p.Fiber = e.SpawnFiber(name, p.start)
	p.Fiber.host = p
	return p
}

// Host gives the fiber a blocking body: the returned step, which the
// fiber's running step must return, starts body on a goroutine of its own.
// It is how a layer that spawns fibers (mpi.World.StartFibers) runs a
// blocking rank body on one of them.
func (f *Fiber) Host(body func(*Proc)) StepFunc {
	p := newProc(body)
	p.Fiber = f
	f.host = p
	return p.start
}

func newProc(body func(*Proc)) *Proc {
	return &Proc{body: body, toBody: make(chan struct{}), toHost: make(chan struct{})}
}

// start is the hosted fiber's first step: create the body goroutine, then
// wait for it like any resume.
func (p *Proc) start(*Fiber) StepFunc {
	p.live = true
	p.running = true
	go p.run()
	return p.wait()
}

// run is the body goroutine.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, stop := r.(stopSignal); !stop {
				p.panicked = r
			}
		}
		p.live = false
		p.toHost <- struct{}{}
	}()
	p.body(p)
}

// resume is the last continuation of every blocking call. On the engine
// side it gives the parked body goroutine control; when the chain got here
// without suspending, the body goroutine is the one running it, and the
// chain ending tells it so.
func (p *Proc) resume(*Fiber) StepFunc {
	if p.running {
		return nil
	}
	p.running = true
	p.toBody <- struct{}{}
	return p.wait()
}

// wait sleeps on the engine side until the body goroutine blocks again or
// exits, and returns what the hosted fiber continues with: the suspended
// call's next step, or nil at the end of the body. A body that panicked
// re-raises here, on the goroutine that called Run.
func (p *Proc) wait() StepFunc {
	<-p.toHost
	p.running = false
	if r := p.panicked; r != nil {
		p.panicked = nil
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
	step := p.step
	p.step = nil
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
		// continuation, and this goroutine parks until the chain reaches
		// resume or a Blocking step.
		p.step = step
		p.toHost <- struct{}{}
		<-p.toBody
		if p.killed {
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
// its own, on the body goroutine and continues with next. It is how a
// blocking callback (a stream operator that computes) runs in the middle
// of the chain of the blocking call it was passed to.
func (p *Proc) Blocking(fn func(), next StepFunc) StepFunc {
	return func(*Fiber) StepFunc {
		if p.running {
			fn()
			return next
		}
		p.nested, p.after = fn, next
		p.running = true
		p.toBody <- struct{}{}
		return p.wait()
	}
}

// Throw returns the step that ends the pending blocking call by panicking
// with v on the body goroutine. The runtime's failure continuation uses it
// to unwind a blocking body to its recovery point.
func (p *Proc) Throw(v interface{}) StepFunc {
	p.thrown = v
	return p.resume
}

// stop releases the body goroutine of a process that is being killed or
// whose engine is stopping: parked, it unwinds and exits before stop
// returns; running (a body that killed itself), it unwinds at its next
// blocking call. It reports whether the goroutine is gone.
func (p *Proc) stop() bool {
	if !p.live {
		return true
	}
	p.killed = true
	if p.running {
		return false
	}
	p.toBody <- struct{}{}
	<-p.toHost
	return true
}

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

// Len reports how many processes are waiting.
func (q *WaitQueue) Len() int { return len(q.waiters) }

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
