package sim

// Link models a serial transmission resource (for example, a NIC or a
// file-system stripe) as a timeline reservation: callers reserve
// contiguous slots and the link hands out the earliest available start
// time. Reservations do not block the caller; they are pure bookkeeping
// that the communication layer converts into event times.
type Link struct {
	nextFree Time
	busy     Time // accumulated reserved time, for utilization reporting
}

// Reserve books dur of exclusive link time no earlier than at, returning
// the start and end of the granted slot.
func (l *Link) Reserve(at, dur Time) (start, end Time) {
	start = Max(at, l.nextFree)
	end = start + dur
	l.nextFree = end
	l.busy += dur
	return start, end
}

// Striped is a bank of identical serial links with least-loaded placement,
// modelling a striped resource such as a parallel file system with
// multiple storage targets.
type Striped struct {
	links []Link
}

// NewStriped creates a bank of n links. n must be positive.
func NewStriped(n int) *Striped {
	if n <= 0 {
		panic("sim: Striped needs at least one link")
	}
	return &Striped{links: make([]Link, n)}
}

// Width reports the number of links in the bank.
func (s *Striped) Width() int { return len(s.links) }

// Reset clears all reservations, returning the bank to its initial state
// for reuse across simulation runs.
func (s *Striped) Reset() {
	for i := range s.links {
		s.links[i] = Link{}
	}
}

// reserve books dur on the link that can start earliest (ties broken by
// lowest index, for determinism), reporting the chosen link index too,
// for callers (Bank) whose tests shadow per-stripe timelines.
func (s *Striped) reserve(at, dur Time) (start, end Time, link int) {
	best := 0
	bestStart := Max(at, s.links[0].nextFree)
	for i := 1; i < len(s.links); i++ {
		st := Max(at, s.links[i].nextFree)
		if st < bestStart {
			best, bestStart = i, st
		}
	}
	start, end = s.links[best].Reserve(at, dur)
	return start, end, best
}

// Busy reports the total reserved time across all links.
func (s *Striped) Busy() Time {
	var total Time
	for i := range s.links {
		total += s.links[i].busy
	}
	return total
}

// Token is a distributed mutual-exclusion resource with FIFO hand-off and
// a fixed per-acquisition cost, used to model shared-file-pointer
// serialization. Unlike Link it blocks the acquirer.
type Token struct {
	holder  *Fiber
	waiters WaitQueue
}

// FAcquire takes the token, queueing FIFO while it is held, and continues
// with next.
func (t *Token) FAcquire(f *Fiber, reason string, next StepFunc) StepFunc {
	var loop StepFunc
	loop = func(_ *Fiber) StepFunc {
		if t.holder != nil {
			return t.waiters.WaitFiber(f, reason, loop)
		}
		t.holder = f
		return next
	}
	return f.FlushDebt(loop)
}

// Release frees the token and wakes the next waiter. Releasing a token the
// caller does not hold is a programming error.
func (t *Token) Release(r *Fiber) {
	if t.holder != r {
		panic("sim: Token released by non-holder")
	}
	t.holder = nil
	t.waiters.Signal(r.e)
}

// Evict removes a killed process from the token: if r holds the token
// it is released on r's behalf (waking the next waiter); if r is queued
// it is dropped from the FIFO. Failure handling calls this for every
// token a crashed rank might touch so the hand-off chain never wedges
// on — or wakes — a dead process.
func (t *Token) Evict(r *Fiber, e *Engine) {
	if t.holder == r {
		t.holder = nil
		t.waiters.Signal(e)
		return
	}
	t.waiters.Remove(r)
}
