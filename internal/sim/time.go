// Package sim implements a deterministic, process-oriented discrete-event
// simulator. It is the substrate on which the MPI-like runtime
// (internal/mpi) and everything above it run.
//
// Simulated processes execute one at a time under the control of a single
// event loop, so simulations are fully deterministic: the same seed and
// configuration always produce the same virtual-time trajectory,
// regardless of host scheduling.
//
// # Fast-path invariant
//
// Every event goes through one event queue. One fast path keeps the hot
// loop cheap without changing any trajectory (see Engine for details):
//
//   - Inline advance: a process may move the clock directly only when
//     nothing is queued at or before the target and the target does not
//     exceed the run limit, i.e. exactly when the loop's next pop would be
//     that process's own resume.
//
// Equal-time events always fire in scheduling (seq) order; the inline
// advance preserves that order, which is what keeps optimized runs
// bit-identical to the naive loop.
//
// # Processes
//
// A simulated process is a Fiber: an explicit continuation state machine
// of step functions that the event loop resumes with a plain function
// call. Fibers are the only thing the engine schedules, and every blocking
// primitive (Advance, Park, wait queues, tokens, and the runtimes above)
// is written once, in continuation-passing form, against Fiber.
//
// A body that would rather block — the paper's API is blocking C calls,
// and the examples and most tests are written that way — is a Proc: an
// iter.Pull coroutine hosting a fiber. Proc.Await runs a chain of Fiber
// steps as one blocking call and yields until the chain reaches its last
// continuation; every blocking call of the runtimes above is Await of its
// step-function form. Events still fire on the goroutine that called Run;
// the body coroutine is switched to for as long as its code runs and
// yields back when it blocks, so exactly one of them is ever running. A
// body making the same calls as a step-function body therefore fires the
// same events at the same instants; it pays two coroutine switches per
// call that suspends (about eight times a fiber resume) and none for one
// that completes inline. See Proc for the protocol.
//
// # Multi-world runs
//
// Several worlds (jobs) may share one engine (mpi.Config.Engine, driven
// by internal/cluster): every world's events schedule through the same
// queue, so one (t, seq) stream orders the whole co-scheduled
// simulation. Cross-world event identity follows from that stream plus
// engine-global process identifiers — SpawnFiber numbers processes in
// spawn order across all worlds, so job start order fixes
// both the identifier space and every derived random stream. Deadlock
// reports name blocked processes with their world prefix ("job0/rank3",
// from mpi.Config.Name), so a report from a 4-job cluster attributes
// each stuck rank to its job.
//
// What counts as a trajectory for a cluster run: the tuple
// (TrajectoryVersion, engine seed, the ordered job list — each job's
// full configuration, blocking or step-function bodies aside — and the shared bank's
// policy, weights and width) produces exactly one (t, seq) sequence and
// therefore one set of per-job completion times. As for single worlds,
// how a body is written (blocking or step functions), worker counts, and
// world/engine pooling are never part of the trajectory. Bank
// arbitration arithmetic (Bank.Reserve's pacing and placement) is part
// of it: changing that arithmetic is trajectory-breaking for multi-world
// runs and follows the versioning policy below, while single-world runs
// only ever exercise the FCFS path, which is frozen byte-identical to
// the pre-bank Striped behavior.
//
// Demand signalling (Bank.IOBegin/IOEnd, fed by the mpi file-I/O paths)
// is pure bookkeeping: the hooks schedule no events and move no clocks,
// so firing them changes no trajectory, and the signal sequence itself
// is fixed by the (t, seq) order of the file operations that emit it.
// Only the work-conserving policies (BankFairWC, BankWeightedWC) read
// the signal when granting; they are new configurations, not changed
// ones. Their introduction therefore did NOT bump TrajectoryVersion
// (it stayed 2): fcfs/fair/priority multi-world trajectories are
// byte-identical to the pre-signalling build, which
// internal/experiments pins against recorded PR 4 values.
//
// # Fault determinism
//
// Fault injection (FaultWindow compute slowdowns, Bank stripe outage and
// derate windows, and the link degradation windows in internal/netmodel)
// is part of the configuration, not the trajectory machinery: a fault
// campaign is compiled ahead of the run into per-target window lists
// whose every draw derives from (campaign seed, event id) via Mix64, so
// a campaign is a pure function of its plan. During the run, faulted
// cost arithmetic is window-list integration (StretchThrough,
// Bank.slotEnd) with no random draws and no scheduled events of its own
// — the faulted run is exactly as deterministic as a clean one, across
// pool-reused engines and banks. With no faults installed, every fault-aware code path reduces
// to the historical arithmetic, so fault-free trajectories are
// byte-identical to pre-fault builds and the feature did NOT bump
// TrajectoryVersion (it stayed 2). Changing the integration arithmetic or
// the faulted placement rules IS trajectory-breaking for runs with
// faults scheduled and follows the versioning policy below.
//
// # Failure and recovery determinism
//
// Crash-stop failure extends the fault contract from degradation to
// death and rebirth. A crash campaign (CrashEvent lists, compiled by
// internal/faults like every other family) is part of the
// configuration: the consuming layer schedules one ordinary engine
// event per crash at its At instant, whose callback calls Engine.Kill
// on the victim and schedules the restart event at At+Restart. Kill
// itself fires no events — the fiber is marked done in place, and the
// goroutine of a blocking body, parked in its pending call, unwinds and
// exits before Kill returns (a body that kills itself unwinds at its next
// blocking call) — so the kill occupies exactly the (t, seq) position of
// the crash callback. Stale resume events left behind by the victim are
// popped and counted as fired. The restart respawns the body via
// SpawnFiber (a blocking body is hosted on the new fiber), drawing the next
// process id from the engine's one counter, so the respawned process has
// the same id, stream, and resume positions however its body is written.
//
// With no crashes scheduled, none of the failure paths runs — the
// guards are eventless boolean checks — so crash-free trajectories are
// byte-identical to pre-crash builds and the feature did NOT bump
// TrajectoryVersion (it stayed 2). A fixed crash campaign replays
// bit-for-bit across repeated runs, pooled-engine reuse, and blocking
// and step-function bodies; changing kill/restart event placement, the peer-notification
// order in the mpi layer, or respawn id assignment IS
// trajectory-breaking for runs with crashes scheduled and follows the
// versioning policy below.
//
// # Lossy delivery determinism
//
// The message-fault family extends the contract from degraded links to
// lost and duplicated messages. A lossy campaign (a netmodel.MsgFaults
// verdict table, compiled by internal/faults like every other family)
// is part of the configuration: the consuming layer (internal/mpi's
// reliable-delivery protocol) asks the table for a verdict on each
// transmission and schedules acks, retransmission timers, and
// duplicate deliveries as ordinary engine events. Verdicts are pure
// hashes of (seed, src, dst, seq, attempt) — no generator state, no
// draw order — so the fate of any one transmission is independent of
// every other message in flight and a single (pair, seq) can be
// replayed in isolation.
//
// With no table armed, none of the protocol runs — the guards are
// eventless boolean checks, no sequence numbers are assigned and no
// timers exist — so zero-loss trajectories are byte-identical to
// pre-protocol builds and the feature did NOT bump TrajectoryVersion
// (it stayed 2). A fixed lossy campaign replays bit-for-bit across
// repeated runs and pooled-engine reuse, with the
// acks and timers part of the schedule like any other event; changing
// the verdict hash derivation, ack event placement, the timeout and
// backoff arithmetic, or the receiver's in-order release rule IS
// trajectory-breaking for runs with a table armed and follows the
// versioning policy below.
//
// # Parallel mode
//
// The conservative parallel mode (ShardGroup) runs several engines as
// one simulation: simulated state is partitioned across shard engines
// (internal/mpi places each rank, with its matcher and pools, on one
// shard), and the group alternates windows of independent shard
// execution with barriers that merge cross-shard event deliveries. The
// bounds are conservative lookahead, per shard: with L a lower bound on
// the virtual-time latency of every cross-shard interaction (the
// netmodel's minimum link latency, derated by any latency-stretching
// fault windows) and G the global minimum pending event time, events
// strictly before G+L are safe to execute on every shard once every
// event before G has been merged. The shard that holds the event at G
// need not stop there: nothing another shard does can reach it before
// G2+L, G2 being the earliest pending event of the other shards, so it
// runs until then — without bound when the others are idle — except that
// a delivery it posts across at instant t may be answered at t+L, which
// pulls its own limit in to t+L-1. A shard waits only for what can reach
// it, and a group of one shard runs in one window.
//
// A window runs the shards that have an event before G+L. The goroutine
// that called ShardGroup.Run executes the lowest of them itself; each
// other busy shard runs on a worker goroutine of its own that lives for
// the length of the Run, parked on a channel between windows, so a window
// costs one hand-off per extra busy shard and no goroutine creation.
// Hosted bodies (Proc) do not care which goroutine drives their shard: a
// body parked in one window by a worker may be resumed in the next by the
// caller. A window leaves each shard's clock at the last event it fired,
// so Run reports the instant of the last event, as Engine.Run does.
// ShardGroup.Stats counts windows, busy shards per window, merged posts
// and the windows a shard ran past G+L; the counts follow the placement
// (the trajectory does not). DESIGN.md ("The window barrier") has the
// protocol, the safety argument and the measurements behind it.
//
// Worker-count invariance — byte-identical trajectories for every shard
// count and every placement of ranks onto shards — comes from one
// extension of the event key: events order by (t, pri, seq), where pri is
// zero for every ordinary event and, for cross-rank deliveries in a
// sharded run, encodes the sending rank and its per-rank send counter.
// Same-instant delivery order at a rank is then a pure function of who
// sent what, never of which shard hosted the sender or which shard's
// window ran first; ordinary same-instant events keep pure seq order
// because their relative creation order within a shard is itself
// placement-independent (ranks are spawned with their world rank as id
// via SpawnID, so random streams and resume identities never depend on
// the partition). Every cross-rank delivery carries a pri in a sharded
// run — including deliveries between ranks that happen to share a shard
// — because placement must not decide which ordering rule applies.
//
// A group of one shard is the parallel mode too, run in one window:
// mpi.Config.Shards >= 1 (decouplebench -cores 1 included) selects the
// sharded family, and only Shards == 0 is classic. The two families can
// order same-instant arrivals at a rank differently, so a one-shard world
// built classic would break worker-count invariance.
//
// Classic (unsharded) runs schedule nothing with a non-zero pri, so
// their (t, seq) trajectories are byte-identical to pre-parallel builds
// and the feature did NOT bump TrajectoryVersion (it stayed 2). The sharded
// configuration is a new configuration — like a different wake strategy,
// its rows are pinned against each other across worker counts (the
// cross-worker-count tests in internal/experiments), not against the
// classic rows. Changing the pri encoding, the lookahead arithmetic, or
// the barrier merge order IS trajectory-breaking for sharded runs and
// follows the versioning policy below.
//
// # Determinism versioning
//
// The simulator's determinism contract is: one (code version, seed,
// configuration) triple produces exactly one virtual-time trajectory —
// the sequence of (t, seq) event firings — and therefore bit-identical
// experiment output. TrajectoryVersion names the code-version component.
//
// A change is TRAJECTORY-BREAKING, and must bump TrajectoryVersion, when
// it alters the (t, seq) sequence any existing program fires: examples
// are reordering the operations a primitive performs (posting a receive
// before instead of after a send), changing wake granularity (moving
// WaitAny from the rank-wide progress queue to per-request waiters
// changed same-instant wake ordering and was the version 1 -> 2 bump),
// changing a collective algorithm, changing how random streams derive
// from seeds, or changing cost arithmetic. A change is NOT breaking when
// it preserves event order exactly: taking a different dispatch path for
// the same events (inline advance versus a resume event, a blocking body
// hosted on its fiber versus step functions), pooling or reusing memory,
// or pure API additions.
//
// A bump is recorded by (1) incrementing TrajectoryVersion with a comment
// naming what changed and why, (2) regenerating the checked-in trajectory
// artifacts (internal/experiments/testdata/rows_v3.csv and manifest_v3.txt,
// renamed for the new version, which TestFiberRowsBitIdentical and
// TestTrajectoryManifest check) in the same change, and (3) noting the bump
// in ROADMAP.md so sweep results from different versions are never
// compared as if equal. A bump that moves events but no row renames the
// CSV with its bytes unchanged, as version 3 did.
// That a blocking body fires the events of the continuation forms it runs,
// no more and at no other instant, is enforced separately by the
// differential tests in internal/sim, internal/mpi and internal/stream,
// which must pass unconditionally — how a body is written is never an
// excuse for a version bump.
package sim

import "fmt"

// TrajectoryVersion identifies the simulator's trajectory-determinism
// generation: all runs with equal (TrajectoryVersion, seed, config)
// produce bit-identical virtual-time trajectories. Bump it only for
// changes that alter event (t, seq) order for existing programs — see
// the package comment's determinism-versioning policy.
//
// Version 1: the seed trajectory contract (PR 1 event order; PR 2's
// fibers reproduce it exactly and did not bump).
//
// Version 2: direct-wake request completion. WaitAny and WaitColl moved
// from parking on the rank-wide progress queue to
// per-request/per-collective waiter registration (sim.Waker): a completing
// message resumes exactly the blocked process waiting on that request, at
// the completion instant, with no broadcast event and no re-scan of the
// rank's other waiters. Same-instant wake ordering changed — a waiter is
// now woken by one directly-scheduled resume event instead of riding a
// broadcast chain, so the (t, seq) positions of consumer resumes (and
// everything downstream of them, e.g. shared-file token FIFO order in the
// Fig. 8 stream workloads) moved. The version-1 broadcast wake no longer
// exists (DESIGN.md, "One body, one wake").
//
// Version 3: known outcomes are simulated once (DESIGN.md, "Known
// outcomes"). A wait whose request is bound to a message that is not yet
// ready resumes once, in its settle step, at the settle instant instead of
// waking at the ready instant to compute it; a barrier round's send is
// the floor of its receive's wait instead of a suspension of its own; and
// the reliable protocol arms a retransmission timer only when its ack
// cannot fire first, pushing the timers that stay armed at the first
// arrival instead of at transmission. Events are gone and same-instant
// positions moved: a settle's, among events at its instant pushed between
// arrival and ready, and an armed timer's, among events at its deadline
// pushed between transmission and arrival. No row moved; rows_v3.csv is
// version 2's file under the new name.
const TrajectoryVersion = 3

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. Durations are also expressed as Time values.
type Time int64

// Convenient duration units in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// MaxTime is the largest representable virtual time.
const MaxTime Time = 1<<63 - 1

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
