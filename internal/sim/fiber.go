package sim

import (
	"fmt"
	"math/rand"
)

// StepFunc is one segment of a fiber body: code that runs to the fiber's
// next suspension point (or to the end of the body) and returns the
// continuation to execute next, or nil when the body is finished.
//
// Blocking primitives (Fiber.Advance, Fiber.Park, the fiber variants of
// the mpi wait calls) are continuation-passing: they take the step to run
// after the operation completes and return the value the current step must
// return immediately. When the operation can complete synchronously (for
// example, an inline clock advance), the returned continuation is executed
// right away by the fiber runner, so the fast path costs a function call
// and nothing else.
type StepFunc func(f *Fiber) StepFunc

// Fiber is the engine's second process representation: an explicit
// continuation state machine that the dispatcher resumes with a plain
// function call instead of a goroutine handoff. A cross-process dispatch
// to a fiber therefore costs a method call on the current token holder's
// stack, not a goroutine switch — the difference between ~600ns and a few
// nanoseconds per dispatch on message-dominated workloads.
//
// Fibers and goroutine-backed processes (Proc) schedule through the same
// event heap and same-timestamp ring and share the (t, seq) determinism
// contract: a fiber port of a process body that performs the same sequence
// of simulation operations produces a bit-identical trajectory
// (TestFiberMatchesProcTrajectory here and the runBothWays tests in
// internal/mpi assert this).
//
// The price is the programming model: fiber bodies cannot block mid-call,
// so every blocking point splits the body into explicit steps (StepFunc).
// A primitive that suspends must have its return value returned from the
// current step immediately; executing further simulation actions after a
// suspension and before returning is a programming error (the work would
// happen before the fiber's resume instant).
type Fiber struct {
	e           *Engine
	name        string
	id          int
	rng         *rand.Rand
	debt        Time
	next        StepFunc // pending continuation while suspended
	susp        bool     // the running step hit a suspension point
	parked      bool     // suspended without a scheduled resume (awaits a wake)
	blockReason string
	done        bool
	doneAt      Time // virtual time at which the body finished
}

// SpawnFiber creates a fiber executing start. Like Spawn, the fiber starts
// at the current virtual time (or time 0 if the engine has not started
// yet), and spawn order determines the identifier that seeds the fiber's
// random stream — a fiber spawned in place of a Proc inherits the same
// stream.
func (e *Engine) SpawnFiber(name string, start StepFunc) *Fiber {
	id := e.nextProc
	e.nextProc++
	return e.SpawnFiberID(id, name, start)
}

// SpawnFiberID is SpawnFiber with a caller-chosen id, the fiber
// counterpart of SpawnID: sharded worlds give each rank its world rank as
// id regardless of which shard engine hosts it, keeping the id-seeded
// random streams independent of the partitioning.
func (e *Engine) SpawnFiberID(id int, name string, start StepFunc) *Fiber {
	f := &Fiber{
		e:    e,
		name: name,
		id:   id,
		next: start,
	}
	e.fibs = append(e.fibs, f)
	e.live++
	e.AtAction(e.now, f)
	return f
}

// Name reports the fiber name given to SpawnFiber.
func (f *Fiber) Name() string { return f.name }

// ID reports the engine-unique identifier, shared with Proc spawn order.
func (f *Fiber) ID() int { return f.id }

// Engine returns the engine this fiber belongs to.
func (f *Fiber) Engine() *Engine { return f.e }

// Now reports the current virtual time.
func (f *Fiber) Now() Time { return f.e.now }

// Done reports whether the fiber body has finished.
func (f *Fiber) Done() bool { return f.done }

// FinishedAt reports the virtual time at which the fiber body finished.
// It is meaningful only once Done reports true; multi-world setups use it
// for per-job makespans.
func (f *Fiber) FinishedAt() Time { return f.doneAt }

// Rand returns the fiber's deterministic random source, derived from the
// engine seed and the fiber id exactly as Proc.Rand derives its stream.
func (f *Fiber) Rand() *rand.Rand {
	if f.rng == nil {
		f.rng = newRand(f.e.seed, int64(f.id))
	}
	return f.rng
}

// resumeAt schedules the fiber's resume event (Runnable contract).
func (f *Fiber) resumeAt(t Time) { f.e.AtAction(t, f) }

// blockedOn reports deadlock-diagnostic state (Runnable contract).
func (f *Fiber) blockedOn() (bool, string) {
	return f.parked && !f.done, f.blockReason
}

// engine returns the owning engine (Runnable contract).
func (f *Fiber) engine() *Engine { return f.e }

// Fire resumes the fiber: it runs steps until one suspends or the body
// finishes. It implements Action so that fiber resumes flow through the
// engine's ordinary event dispatch — inline on the current token holder,
// no goroutine switch. Fire is invoked by the engine; application code
// never calls it.
func (f *Fiber) Fire() {
	if f.done || f.e.stopped {
		return
	}
	f.parked = false
	f.blockReason = ""
	step := f.next
	f.next = nil
	for step != nil {
		step = step(f)
		if f.susp {
			f.susp = false
			f.next = step
			return
		}
	}
	f.done = true
	f.doneAt = f.e.now
	f.e.live--
}

// suspend marks the running step suspended. Exactly one real suspension
// may occur per step: the continuation returned by the suspending
// primitive must be returned from the step before anything else happens.
func (f *Fiber) suspend(parked bool, reason string) {
	if f.susp {
		panic(fmt.Sprintf("sim: fiber %q suspended twice in one step; return the continuation immediately", f.name))
	}
	f.susp = true
	f.parked = parked
	f.blockReason = reason
}

// Advance consumes d of virtual time (plus accumulated debt) and continues
// with next. When nothing else is scheduled at or before the target the
// clock moves inline and next is executed immediately; otherwise the fiber
// suspends until its resume event fires. Mirrors Proc.Advance decision for
// decision, so trajectories are bit-identical across representations.
func (f *Fiber) Advance(d Time, next StepFunc) StepFunc {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance(%v) with negative duration in fiber %q", d, f.name))
	}
	d += f.debt
	f.debt = 0
	if d == 0 {
		return next
	}
	e := f.e
	target := e.now + d
	if e.canAdvanceInline(target) {
		e.jumpTo(target)
		return next
	}
	e.AtAction(target, f)
	f.suspend(false, "advancing")
	return next
}

// AdvanceTo consumes virtual time until max(t, now+debt), mirroring
// Proc.AdvanceTo.
func (f *Fiber) AdvanceTo(t Time, next StepFunc) StepFunc {
	target := Max(t, f.e.now+f.debt)
	f.debt = 0
	if target > f.e.now {
		if f.e.canAdvanceInline(target) {
			f.e.jumpTo(target)
			return next
		}
		f.e.AtAction(target, f)
		f.suspend(false, "advancing")
	}
	return next
}

// SettleTo consumes all outstanding debt and advances to t, which the
// caller asserts already accounts for that debt. The fiber counterpart of
// Proc.SettleTo — the one-yield settling step of blocking waits.
func (f *Fiber) SettleTo(t Time, next StepFunc) StepFunc {
	if t < f.e.now {
		panic(fmt.Sprintf("sim: SettleTo(%v) before now %v in fiber %q", t, f.e.now, f.name))
	}
	f.debt = 0
	if t > f.e.now {
		if f.e.canAdvanceInline(t) {
			f.e.jumpTo(t)
			return next
		}
		f.e.AtAction(t, f)
		f.suspend(false, "advancing")
	}
	return next
}

// AddDebt records d of CPU time consumed without yielding, exactly like
// Proc.AddDebt.
func (f *Fiber) AddDebt(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: AddDebt(%v) negative in fiber %q", d, f.name))
	}
	f.debt += d
}

// Debt reports the accumulated unflushed CPU time.
func (f *Fiber) Debt() Time { return f.debt }

// FlushDebt converts accumulated debt into virtual time and continues with
// next. Like Proc.FlushDebt it must run before a blocking wait's first
// condition check.
func (f *Fiber) FlushDebt(next StepFunc) StepFunc {
	return f.Advance(0, next)
}

// Then returns a step that runs fn — plain bookkeeping that consumes no
// virtual time and never suspends — and continues with *next.
//
// It is the body-level combinator behind the zero-allocation rank bodies:
// a continuation built inside a body's iteration loop allocates a fresh
// closure every pass, so steady-state loops must build their steps once,
// at body setup. Taking next by pointer gives the hoisted step the same
// late binding a closure's variable capture would provide — it can name a
// loop head that is assigned after the combinator is built — so a body
// can lift its whole step graph out of its loops and iterate
// allocation-free:
//
//	var loop sim.StepFunc
//	emit := sim.Then(func() { st.Isend(r, elem) }, &loop)
//	loop = func(*sim.Fiber) sim.StepFunc {
//		if done() {
//			return nil
//		}
//		return r.FCompute(slice, emit) // no per-iteration closure
//	}
func Then(fn func(), next *StepFunc) StepFunc {
	return func(*Fiber) StepFunc {
		fn()
		return *next
	}
}

// Park suspends the fiber until another piece of simulation code wakes it
// with Engine.WakeAt, then continues with next. Parking with unflushed
// debt is a programming error, as for Proc.Park.
func (f *Fiber) Park(reason string, next StepFunc) StepFunc {
	if f.debt != 0 {
		panic(fmt.Sprintf("sim: fiber %q parked with %v of unflushed debt", f.name, f.debt))
	}
	f.suspend(true, reason)
	return next
}

// ParkKeepingDebt parks like Park but leaves accumulated debt pending; the
// waker must fold the debt into the SettleTo target on resume, exactly as
// with Proc.ParkKeepingDebt.
func (f *Fiber) ParkKeepingDebt(reason string, next StepFunc) StepFunc {
	f.suspend(true, reason)
	return next
}
