package sim

import "fmt"

// Waker is the direct-wake primitive under waits that register one parked
// process on several completion sources at once (the runtime's
// WaitAny and friends). Each source that completes calls WakeAt with its
// completion instant; the first call schedules the target's resume event
// at exactly that instant and every later call is a no-op, so the target
// consumes exactly one wake event however many sources complete while it
// is parked. Compared to parking on a shared WaitQueue, there is no
// broadcast event, no wake of unrelated waiters, and no re-scan loop on
// the wake path.
//
// Wake-instant contract: the target resumes at the instant of the first
// completion to be *scheduled*. Completion instants reaching one waker
// are monotone in scheduling order for every source the runtime registers
// (per-endpoint NIC reservations are granted in arrival order), so this
// is also the earliest completion instant — except when a self-send
// (ready immediately) overtakes an earlier-scheduled in-flight completion,
// in which case the target resumes at the first-scheduled instant and
// observes both completions then. Either way the trajectory is a pure
// function of (t, seq) order.
//
// A Waker is armed for one park, disarmed on resume, and is immediately
// reusable (it owns no scheduled events of its own — the single resume
// event belongs to the target). The zero value is ready to arm.
type Waker struct {
	e      *Engine
	target *Fiber
	woken  bool
}

// Arm readies the waker to wake target exactly once. The caller parks
// target after registering the armed waker with its completion sources.
func (k *Waker) Arm(e *Engine, target *Fiber) {
	if k.target != nil {
		panic(fmt.Sprintf("sim: Waker armed for %q while still armed for %q", target.Name(), k.target.Name()))
	}
	k.e = e
	k.target = target
	k.woken = false
}

// WakeAt schedules the armed target's resume at virtual time t on the
// first call; later calls (further completions racing the resume) are
// no-ops — the woken target observes them when it re-scans. Calling
// WakeAt on a disarmed waker is a no-op.
func (k *Waker) WakeAt(t Time) {
	if k.woken || k.target == nil {
		return
	}
	k.woken = true
	k.e.WakeAt(t, k.target)
}

// Disarm detaches the target after it resumed. The waker may be rearmed
// (or pooled) immediately.
func (k *Waker) Disarm() { k.target = nil }
