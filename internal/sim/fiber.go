package sim

import "fmt"

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

// Fiber is a simulated process: an explicit continuation state machine
// that the engine resumes with a plain function call. It is the one thing
// the engine schedules — a resume is an ordinary Action event, fired
// inline by the event loop — and every blocking primitive of the simulator
// and of the runtimes above it is written once, against Fiber, in
// continuation-passing form.
//
// The price is the programming model: a step-function body cannot block
// mid-call, so every blocking point splits it into explicit steps
// (StepFunc). A primitive that suspends must have its return value
// returned from the current step immediately; executing further simulation
// actions after a suspension and before returning is a programming error
// (the work would happen before the fiber's resume instant). Bodies that
// would rather block are hosted: a Proc is a goroutine that runs the same
// primitives on a fiber of its own and sleeps until each has completed.
type Fiber struct {
	e           *Engine
	name        string
	id          int
	rng         *Rand
	debt        Time
	next        StepFunc // pending continuation while suspended
	susp        bool     // the running step hit a suspension point
	parked      bool     // suspended without a scheduled resume (awaits a wake)
	blockReason string
	done        bool
	doneAt      Time  // virtual time at which the body finished
	host        *Proc // the goroutine whose blocking body runs on this fiber, if any
}

// SpawnFiber creates a fiber executing start. The fiber starts at the
// current virtual time (or time 0 if the engine has not started yet), and
// spawn order determines the identifier that seeds the fiber's random
// stream.
func (e *Engine) SpawnFiber(name string, start StepFunc) *Fiber {
	id := e.nextProc
	e.nextProc++
	return e.SpawnFiberID(id, name, start)
}

// SpawnFiberID is SpawnFiber with a caller-chosen id: sharded worlds give
// each rank its world rank as id regardless of which shard engine hosts
// it, keeping the id-seeded random streams independent of the
// partitioning; the engine's own id counter is not consumed. The caller is
// responsible for id uniqueness within the engine — see SetIDBase for
// keeping auto-assigned helper ids clear of a reserved range.
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

// Now reports the current virtual time.
func (f *Fiber) Now() Time { return f.e.now }

// Done reports whether the fiber body has finished.
func (f *Fiber) Done() bool { return f.done }

// FinishedAt reports the virtual time at which the fiber body finished.
// It is meaningful only once Done reports true; every run reads its
// makespan from it (mpi.World.Makespan).
func (f *Fiber) FinishedAt() Time { return f.doneAt }

// Rand returns a deterministic per-process random source, derived from the
// engine seed and the fiber id. The source is created lazily so that
// processes that never draw random numbers do not perturb others.
func (f *Fiber) Rand() *Rand {
	if f.rng == nil {
		f.rng = NewRand(Mix64(f.e.seed, int64(f.id)))
	}
	return f.rng
}

// Fire resumes the fiber: it runs steps until one suspends or the body
// finishes. It implements Action so that resumes flow through the engine's
// ordinary event dispatch. Fire is invoked by the engine; application code
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
// suspends until its resume event fires. Negative durations are a
// programming error.
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

// AdvanceTo consumes virtual time until max(t, now+debt). If the target is
// in the past it only flushes outstanding debt.
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
// caller asserts already accounts for that debt (and any further charges
// it wants folded into a single clock advance). It is the one-suspension
// form of FlushDebt-then-AdvanceTo-then-Advance sequences on hot
// completion paths, and the settling half of ParkKeepingDebt.
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

// AddDebt records d of CPU time consumed without suspending. Debt is a
// performance fast path for sub-microsecond overheads (for example,
// per-message send overhead): it accumulates until the next
// Advance/AdvanceTo or FlushDebt, at which point it is converted into real
// virtual time. Blocking primitives must flush it before their first
// condition check.
func (f *Fiber) AddDebt(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: AddDebt(%v) negative in fiber %q", d, f.name))
	}
	f.debt += d
}

// Debt reports the accumulated unflushed CPU time.
func (f *Fiber) Debt() Time { return f.debt }

// FlushDebt converts accumulated debt into virtual time and continues with
// next. It must run before a blocking wait's first condition check, never
// between the check and the park (that would either miss wakeups or
// double-resume).
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
// with Engine.WakeAt, then continues with next. reason is shown in deadlock
// reports. Parking with unflushed debt is a programming error: the debt
// would silently vanish from the timeline.
func (f *Fiber) Park(reason string, next StepFunc) StepFunc {
	if f.debt != 0 {
		panic(fmt.Sprintf("sim: fiber %q parked with %v of unflushed debt", f.name, f.debt))
	}
	f.suspend(true, reason)
	return next
}

// ParkKeepingDebt parks like Park but leaves accumulated debt pending: the
// busy window overlaps the blocked period instead of preceding it. The
// caller must fold the debt into a SettleTo target on wake — observe
// nothing earlier than park-time now plus the debt — which yields the same
// resume instant as flushing before the park, one suspension cheaper.
func (f *Fiber) ParkKeepingDebt(reason string, next StepFunc) StepFunc {
	f.suspend(true, reason)
	return next
}

// ResumeAt schedules a parked fiber to resume at t with next instead of the
// continuation it parked with, its kept debt settled: the wake and the
// SettleTo of the woken step in one event, for a waker that already knows
// the instant that step would settle to. t must not be before now. A fiber
// killed while parked ignores the resume, as it ignores a wake.
func (f *Fiber) ResumeAt(t Time, next StepFunc) {
	if !f.done {
		if !f.parked {
			panic(fmt.Sprintf("sim: ResumeAt on fiber %q, which is not parked", f.name))
		}
		f.debt = 0
		f.next = next
	}
	f.e.AtAction(t, f)
}
