package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// globalEvents accumulates events fired by every engine in the process,
// for throughput reporting (events/sec) across concurrent simulations.
// An engine adds the events of each drive of its loop when the drive
// returns.
var globalEvents atomic.Uint64

// GlobalEvents reports the total number of events fired by all engines in
// this process since start (or since the last counter read delta taken by
// the caller). It is safe to call from any goroutine.
func GlobalEvents() uint64 { return globalEvents.Load() }

// Action is a schedulable occurrence. Scheduling a pointer-shaped Action
// with AtAction stores it directly in the event (no closure allocation),
// which lets hot callers reuse one long-lived object for many events.
type Action interface {
	Fire()
}

// funcAction adapts a plain callback to Action without allocating: func
// values are pointer-shaped, so the interface conversion is direct.
type funcAction func()

func (f funcAction) Fire() { f() }

// event is a scheduled occurrence in virtual time: an action to fire (a
// process's resume is its fiber). Events with equal time fire in
// priority then scheduling order (pri, seq), which makes runs
// deterministic. pri is zero for every ordinary event — the classic
// contract is pure (t, seq) order — and non-zero only for cross-rank
// message deliveries under the conservative parallel mode (see
// ShardGroup), where it carries a canonical partition-independent key so
// same-instant delivery order does not depend on how ranks were sharded.
// seq, the order of scheduling, is not a field: every bucket of the queue
// (eventQueue) holds its events in the order they were scheduled, so
// events are popped in exactly (t, pri, seq) order without two of them
// ever being compared. Events are stored by
// value, 32 bytes each, so nothing is allocated per event.
type event struct {
	t   Time
	pri uint64
	act Action
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
//
// All simulated code (process bodies and event callbacks) runs under the
// engine's single logical thread of control, so it may freely mutate
// shared simulation state without locking. Events fire on the goroutine
// that called Run; a process with a blocking body (Proc) borrows that
// thread for as long as its body runs and gives it back when the body
// blocks.
//
// Pending events wait in queue, a monotone radix queue (eventQueue). It
// may assume that no event is scheduled before the instant of its latest
// pop, which never exceeds now: AtAction and AtActionPri refuse instants
// before now, jumpTo only moves now forward, and a ShardGroup merges a
// post into a shard only at an instant past the limit that shard has run
// to. The queue checks that itself and panics rather than fire
// events out of order.
//
// Every event goes through the queue. The one fast path skips an event
// altogether:
//
//   - Inline advance: when the running process advances to an instant
//     strictly before everything queued, the engine loop would pop that
//     process's own resume next anyway, so Advance moves the clock directly
//     and keeps running — no event, no suspend/resume round trip. See
//     Engine.canAdvanceInline. An event scheduled at now afterwards, while
//     now is ahead of the queue's latest pop, lands in the lowest non-empty
//     bucket as that bucket's minimum and so pops first, in scheduling
//     order with the others at now.
type Engine struct {
	now   Time
	limit Time // last instant drive may run; ShardGroup.post lowers it mid-window
	seed  int64
	queue eventQueue

	fibs     []*Fiber
	live     int // processes spawned and not yet finished
	nextProc int // id counter of SpawnFiber
	running  bool
	fired    uint64
	stopped  bool

	// Conservative parallel mode (parallel.go): engines built by a
	// ShardGroup carry their group and shard index so cross-shard event
	// posts route through the group's window-barrier outboxes. Both are
	// zero for standalone engines.
	group *ShardGroup
	shard int
}

// NewEngine returns an engine whose per-process random streams derive from
// seed. Two engines built with the same seed and driven by the same code
// produce identical trajectories.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.queue.init()
	return e
}

// Reset returns the engine to its initial state with a new seed, keeping
// the event queue's capacity so that reusing one engine across many
// simulation runs allocates nothing per run. A reset engine behaves
// exactly like a fresh NewEngine(seed): virtual time, process ids, event
// counters and QueueStats restart from zero, so trajectories are
// independent of reuse.
//
// Reset must not be called while the engine is running, and every body
// goroutine must have exited (as Run guarantees on return; a body
// goroutine starts only when the engine runs); pending continuations are
// simply dropped.
func (e *Engine) Reset(seed int64) {
	if e.running {
		panic("sim: Reset called while the engine is running")
	}
	for _, f := range e.fibs {
		if f.host != nil && f.host.live {
			panic(fmt.Sprintf("sim: Reset with process %q still live (after a shard window?)", f.name))
		}
	}
	e.queue.reset()
	for i := range e.fibs {
		e.fibs[i] = nil
	}
	e.fibs = e.fibs[:0]
	e.now = 0
	e.limit = 0
	e.seed = seed
	e.live = 0
	e.nextProc = 0
	e.fired = 0
	e.stopped = false
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events reports how many events have fired so far.
func (e *Engine) Events() uint64 { return e.fired }

// QueueStats reports what the event queue has done since the engine was
// built or last Reset. Call it between runs, not from another goroutine
// while the engine runs.
func (e *Engine) QueueStats() QueueStats { return e.queue.stats }

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics.
func (e *Engine) At(t Time, fn func()) { e.AtAction(t, funcAction(fn)) }

// AtAction schedules act to fire at virtual time t. Scheduling in the
// past is a programming error and panics.
func (e *Engine) AtAction(t Time, act Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.queue.push(event{t: t, act: act})
}

// AtActionPri schedules act at virtual time t with an explicit event
// priority: at equal instants, lower pri fires first and seq breaks the
// remaining ties. Ordinary events have pri 0, so a non-zero pri fires
// after every same-instant pri-0 event regardless of scheduling order —
// the property the conservative parallel mode needs to make same-instant
// cross-rank delivery order independent of rank partitioning. t must be
// strictly in the future: the queue orders the pri events of an instant
// once, when it reaches that instant, so none may join an instant it has
// reached.
func (e *Engine) AtActionPri(t Time, pri uint64, act Action) {
	if t <= e.now {
		panic(fmt.Sprintf("sim: scheduling pri event at %v not after now %v", t, e.now))
	}
	e.queue.push(event{t: t, pri: pri, act: act})
}

// Post schedules act on dst at virtual time t with priority pri, routing
// through the shard group's window outboxes when dst lives on another
// shard. On the same engine it is AtActionPri. It is the delivery seam of
// the conservative parallel mode: all cross-rank traffic in a sharded run
// goes through Post with a canonical pri so the merged order at equal
// instants is a pure function of (t, pri), never of shard placement or
// barrier arrival order.
func (e *Engine) Post(dst *Engine, t Time, pri uint64, act Action) {
	if dst == e {
		e.AtActionPri(t, pri, act)
		return
	}
	if e.group == nil || dst.group != e.group {
		panic("sim: Post between engines that do not share a ShardGroup")
	}
	e.group.post(e.shard, dst.shard, t, pri, act)
}

// canAdvanceInline reports whether the running process may move virtual
// time to target directly without parking: the engine is mid-run, target
// does not exceed the run bound, and nothing else is queued at or before
// target, so the loop's next pop would be that process's own resume
// anyway. Must only be consulted by the process the engine is currently
// dispatching.
func (e *Engine) canAdvanceInline(target Time) bool {
	return e.running && target <= e.limit && e.queue.noneThrough(target)
}

// jumpTo is the inline-advance commit: the clock moves and the skipped
// resume event is accounted as fired.
func (e *Engine) jumpTo(target Time) {
	e.now = target
	e.fired++
}

// SetIDBase moves the engine's automatic id counter to at least base, so
// subsequently Spawned processes and fibers take ids >= base. Sharded
// worlds reserve the low range for explicit rank ids (SpawnID) and start
// each shard's helper ids from a disjoint high base.
func (e *Engine) SetIDBase(base int) {
	if e.nextProc < base {
		e.nextProc = base
	}
}

// popNext removes the next runnable event and returns its action,
// advancing the clock to its instant. ok is false when nothing (left) is
// runnable within the run limit.
func (e *Engine) popNext() (act Action, ok bool) {
	if e.queue.noneThrough(e.limit) {
		return nil, false
	}
	t, act := e.queue.pop()
	if t < e.now {
		panic("sim: event queue yielded an event in the past")
	}
	e.now = t
	return act, true
}

// drive runs the event loop up to e.limit on the calling goroutine. If
// simulation code panics, the parked body goroutines are released before
// the panic leaves: a panicking rank body in one job of a multi-world run
// must not leak the parked ranks of every other job.
func (e *Engine) drive() {
	e.running = true
	from := e.fired // every event is counted inside a drive
	defer func() {
		globalEvents.Add(e.fired - from)
		if e.running {
			e.running = false
			e.unwind()
		}
	}()
	for {
		act, ok := e.popNext()
		if !ok {
			break
		}
		e.fired++
		act.Fire()
	}
	e.running = false
}

// Run executes events until the queue is empty, then returns the final
// virtual time. If processes remain blocked when the queue drains, Run
// returns ErrDeadlock describing them.
func (e *Engine) Run() (Time, error) {
	if e.running {
		return e.now, fmt.Errorf("sim: Run called reentrantly")
	}
	e.limit = MaxTime
	e.drive()
	var err error
	if e.live > 0 {
		err = e.deadlockError()
	}
	e.unwind()
	return e.now, err
}

// Kill terminates one process at the current instant — the crash-stop
// primitive under fault campaigns (see the failure/recovery contract in
// the package comment). The fiber is marked done and its pending
// continuation dropped; a body goroutine parked in a blocking call unwinds
// and exits before Kill returns. A body that kills itself keeps running
// to its next blocking call and finishes there. Kill fires no event;
// stale resume events of a killed process are popped and counted as
// fired. Killing a finished process is a no-op. Kill must be called from
// simulation context (an event callback or a process body), never from
// outside a running engine.
func (e *Engine) Kill(f *Fiber) {
	if f.done || (f.host != nil && !f.host.stop()) {
		return
	}
	f.done = true
	f.doneAt = e.now
	f.next = nil
	f.parked = false
	e.live--
}

// unwind drops every pending continuation and releases every parked body
// goroutine, so nothing outlives the run.
func (e *Engine) unwind() {
	e.stopped = true
	for _, f := range e.fibs {
		f.next = nil
		if f.host != nil {
			f.host.stop()
		}
	}
}

// blockedNames appends the engine's blocked processes as "name (reason)".
func (e *Engine) blockedNames(blocked []string) []string {
	for _, f := range e.fibs {
		if f.parked && !f.done {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", f.name, f.blockReason))
		}
	}
	return blocked
}

// newDeadlockError builds the report from the blocked set of one engine
// or, for a ShardGroup, of all its shards: sorted and capped, so a
// deadlock reads the same regardless of shard count.
func newDeadlockError(blocked []string, at Time) error {
	sort.Strings(blocked)
	const max = 12
	if len(blocked) > max {
		blocked = append(blocked[:max], fmt.Sprintf("... and %d more", len(blocked)-max))
	}
	return &DeadlockError{Blocked: blocked, At: at}
}

// deadlockError names all blocked processes of a drained engine.
func (e *Engine) deadlockError() error {
	return newDeadlockError(e.blockedNames(nil), e.now)
}

// DeadlockError reports that the event queue drained while processes were
// still blocked.
type DeadlockError struct {
	Blocked []string
	At      Time
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %s",
		d.At, len(d.Blocked), strings.Join(d.Blocked, "; "))
}
