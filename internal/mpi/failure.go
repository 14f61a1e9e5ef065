// Crash-stop failure and deterministic recovery.
//
// A crash campaign (Config.Crashes, compiled by internal/faults) kills
// rank bodies at fixed virtual-time instants and restarts them after a
// configured restart cost. The failure model is ULFM-flavoured and
// world-synchronous:
//
//   - A crash revokes the whole world at the kill instant: every pending
//     posted receive on every surviving rank completes immediately with a
//     *RankFailedError in its status, every rank's matching state is
//     cleared, and every send or receive posted while the world is
//     revoked returns an already-failed request. The error surfaces
//     through the wait entry points: they divert to the rank's failure
//     continuation (collectives are built on the same waits and fail the
//     same way) — the one FProtect registered, or for a blocking body the
//     step that panics with the *RankFailedError out of its pending call
//     — so no rank ever deadlocks on a dead peer.
//   - Rank bodies run their failure-prone section under FProtect (Protect
//     for blocking bodies, which converts the unwind into an error
//     return), and then rendezvous in Rebuild: once every rank —
//     including the restarted incarnation of the victim — has arrived,
//     collective tag counters reset, the revocation lifts, and all ranks
//     resume together. CheckFailed is the commit-protocol query: a rank
//     that passed its final barrier calls it before returning, so
//     either every rank commits the run or every rank observes the
//     failure. A crash event that fires after any rank body has finished
//     is dropped — completed output is never retroactively revoked.
//   - The victim is respawned through the same SpawnFiber path as the
//     original body and draws the next engine-wide process id, so a
//     fixed campaign replays bit-for-bit across repeats and pooled-engine
//     reuse (see the failure/recovery determinism contract in
//     internal/sim).
//
// Messages are stamped with the world's revocation epoch when sent and
// dropped at delivery when the epoch has moved on, so traffic from a
// pre-crash attempt can never match a post-rebuild receive.
//
// Limitations: crash campaigns do not compose with nonblocking
// collectives in flight at a crash instant (their helper processes are
// not enrolled in the kill).
package mpi

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/sim"
)

// RankFailedError reports that an operation could not complete because a
// rank of the world crashed. It is the error delivered to FProtect's
// failure continuation, and the panic value that unwinds a blocking body
// to Protect.
type RankFailedError struct {
	// World is the world name (Config.Name), empty for anonymous worlds.
	World string
	// Rank is the world rank that crashed.
	Rank int
	// Epoch is the revocation epoch the crash opened; it distinguishes
	// successive failures of one run.
	Epoch int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("%srank %d failed (epoch %d)", errPrefix(e.World), e.Rank, e.Epoch)
}

// errPrefix starts the message of a world-revoking failure: the package,
// then the world's name if it has one.
func errPrefix(world string) string {
	if world == "" {
		return "mpi: "
	}
	return "mpi: " + world + ": "
}

func (e *RankFailedError) rankFailure() {}

// failureError is the family of world-revoking failures: crash-stop
// rank deaths (*RankFailedError) and reliable-delivery give-ups
// (*RankUnreachableError). Both surface through the same wait entry
// points and are recovered by the same Protect/FProtect/Rebuild
// machinery.
type failureError interface {
	error
	rankFailure()
}

// scheduleCrashes installs the campaign's kill events. Called by
// StartFibers once the rank bodies exist; with no crashes configured
// it schedules nothing and the run is byte-identical to a crash-free
// build.
func (w *World) scheduleCrashes() {
	for _, ce := range w.cfg.Crashes {
		ce := ce
		w.eng.At(ce.At, func() { w.killRank(ce.Target, ce.Restart) })
	}
}

// finished reports whether the rank's main body has returned. A dead
// (killed, not yet restarted) rank does not count as finished.
func (rs *rankState) finished() bool {
	return !rs.dead && rs.fib != nil && rs.fib.Done()
}

// committed reports whether any rank body has returned. Under the commit
// protocol the run's output is then final and a late failure (crash or
// unreachable peer) is dropped — otherwise a finished rank could never
// rejoin the rebuild rendezvous.
func (w *World) committed() bool {
	return slices.ContainsFunc(w.ranks, (*rankState).finished)
}

// failPosted is the peer-failure notification of a revocation: every
// pending posted receive of every rank but skip completes now with the
// world's failure, waking any parked waiter, and every rank's matching
// state is reset, skip's last. The match table's order fixes the wake
// order within a rank (pendingPosted); rank order fixes it across ranks.
func (w *World) failPosted(skip *rankState) {
	e := w.eng
	now := e.Now()
	for _, peer := range w.ranks {
		if peer == skip {
			continue
		}
		w.prScratch = peer.match.pendingPosted(w.prScratch[:0])
		for _, p := range w.prScratch {
			req := p.req
			req.done = true
			req.doneAt = now
			req.timed = false
			req.status = Status{Err: w.failure}
			if req.waiter != nil {
				e.WakeAt(now, req.waiter.f)
			} else if req.anyw != nil {
				req.anyw.WakeAt(now)
				req.anyw = nil
			}
		}
		peer.match.reset()
	}
	if skip != nil {
		skip.match.reset()
	}
}

// killRank is the crash event: it kills rank target at the current
// instant, revokes the world, fails every pending receive, and schedules
// the restart. Every step is ordered deterministically (sorted file
// keys, rank order, match-table order), so a fixed campaign replays
// bit-for-bit.
func (w *World) killRank(target int, restart sim.Time) {
	if w.committed() {
		return
	}
	rs := w.ranks[target]
	if rs.dead {
		// The victim is already down (overlapping crash windows); the
		// earlier crash's restart stands.
		return
	}
	e := w.eng
	now := e.Now()
	rs.dead = true
	w.bumpEpoch()
	w.revoked = true
	w.failure = &RankFailedError{World: w.cfg.Name, Rank: target, Epoch: int(w.epoch)}

	victim := rs.fib
	// Pull the victim out of every queue that could wake or wait on it
	// post-mortem: the rebuild rendezvous and the shared-file-pointer
	// tokens (file keys sorted so a token hand-off to the next waiter
	// fires at a deterministic position). A victim parked in
	// WaitSendWindow stays on its own drainQ: relReset's wake of it fires
	// on a finished fiber and does nothing.
	if rs.inRebuild {
		rs.inRebuild = false
		w.rebuildArrived--
		w.rebuildQ.Remove(victim)
	}
	for _, k := range slices.Sorted(maps.Keys(w.files)) {
		w.files[k].token.Evict(victim, e)
	}
	e.Kill(victim)
	// Balance the victim's open demand intervals so the bank's signal
	// never wedges on a dead rank.
	w.drainIO(rs)

	w.failPosted(rs)
	// A rank dying with unacked reliable sends (or held out-of-order
	// arrivals) must not leak them into the rebuilt world: sequence
	// counters, in-flight entries and reorder buffers all restart at
	// zero, and surviving send-window waiters wake to observe the
	// failure. Stale acks and timers retire on the epoch bump above.
	w.relReset()

	e.At(now+restart, func() { w.restartRank(target) })
}

// restartRank respawns the crashed rank's body as a fresh incarnation.
// The respawn draws the next engine-wide process id through the same
// SpawnFiber path as the original body.
func (w *World) restartRank(target int) {
	rs := w.ranks[target]
	if !rs.dead {
		return
	}
	rs.dead = false
	rs.incarnation++
	rank := &Rank{w: w, rs: rs}
	rank.fib = w.eng.SpawnFiber(w.rankName(target), func(f *sim.Fiber) sim.StepFunc {
		return w.mainFiber(rank, f)
	})
	rs.fib = rank.fib
}

// drainIO closes any demand intervals a rank left open when a failure
// unwound it mid-operation, keeping the shared bank's IOBegin/IOEnd
// signal balanced.
func (w *World) drainIO(rs *rankState) {
	for rs.ioDepth > 0 {
		rs.ioDepth--
		if w.signalDemand {
			w.fs.IOEnd(w.cfg.Job, w.eng.Now())
		}
	}
}

// bumpEpoch opens the next revocation epoch. A message carries its epoch
// in 16 bits, so a world revoked more often than that panics instead of
// letting the stamp wrap onto an old epoch's traffic.
func (w *World) bumpEpoch() {
	if w.epoch == math.MaxUint16 {
		panic(fmt.Sprintf("mpi: world %q revoked %d times, the most a message's 16-bit epoch holds", w.cfg.Name, math.MaxUint16))
	}
	w.epoch++
}

// failedRequest returns a request already completed with the world's
// pending failure: the result of posting any operation while the world
// is revoked.
func (w *World) failedRequest() *Request {
	req := w.newRequest()
	req.done = true
	req.doneAt = w.eng.Now()
	req.status = Status{Err: w.failure}
	return req
}

// Incarnation reports how many times this rank has been killed and
// restarted: 0 for the original body, 1 for the first respawn, and so
// on. Restarted bodies use it to rejoin the rebuild rendezvous and
// restore state from their last checkpoint.
func (r *Rank) Incarnation() int { return r.rs.incarnation }

// CheckFailed panics with the pending *RankFailedError if the world is
// revoked. Rank bodies call it inside Protect after their final
// synchronization, so a crash that slips in before the run commits sends
// every rank — not just the ones with operations in flight — back
// through recovery together.
func (r *Rank) CheckFailed() {
	r.Block("CheckFailed", r.FCheckFailed)
}

// FCheckFailed is CheckFailed in continuation form: it diverts to the
// rank's failure continuation when the world is revoked, else continues
// with next.
func (r *Rank) FCheckFailed(next sim.StepFunc) sim.StepFunc {
	if r.w.revoked {
		return r.failNow()
	}
	return next
}

// Protect is FProtect for blocking bodies. It runs fn, converting a
// rank-failure unwind into an error return: it recovers a world-revoking
// failure panic — *RankFailedError from a crash, *RankUnreachableError
// from the reliable protocol's retry cap — re-raising anything else,
// closes any demand intervals fn left open, and reports the failure. The
// caller then typically accounts its lost work and calls Rebuild.
func (r *Rank) Protect(fn func()) (err error) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		fe, ok := rec.(failureError)
		if !ok {
			panic(rec)
		}
		r.w.drainIO(r.rs)
		err = fe
	}()
	fn()
	return nil
}

// FProtect registers onFail as the continuation the wait primitives
// divert to when an operation fails, then starts attempt. The
// registration stays in place for the rank's lifetime (re-registered by
// each FProtect call).
func (r *Rank) FProtect(attempt sim.StepFunc, onFail func(error) sim.StepFunc) sim.StepFunc {
	rs := r.rs
	rs.failStep = func(_ *sim.Fiber) sim.StepFunc {
		r.w.drainIO(rs)
		return onFail(r.w.failure)
	}
	return attempt
}

// failNow returns the rank's registered failure continuation, or panics
// with the pending failure when none is registered (a fiber body that
// hit a revoked world outside FProtect).
func (r *Rank) failNow() sim.StepFunc {
	if r.rs.failStep == nil {
		panic(r.w.failure)
	}
	return r.rs.failStep
}

// Rebuild is the world-level revoke-and-rebuild rendezvous: it blocks
// until every rank of the world — survivors and restarted incarnations
// alike — has arrived, then atomically zeroes every communicator's
// collective tag counters, discards in-flight Split rendezvous and
// allgatherv results, lifts the revocation, and releases all ranks
// together. Survivors call it after Protect reports a failure;
// restarted bodies call it first (Incarnation > 0).
func (r *Rank) Rebuild() {
	r.Block("Rebuild", r.FRebuild)
}

// FRebuild is Rebuild in continuation form, continuing with then once
// the rendezvous completes.
func (r *Rank) FRebuild(then sim.StepFunc) sim.StepFunc {
	w, rs, f := r.w, r.rs, r.fib
	return f.FlushDebt(func(_ *sim.Fiber) sim.StepFunc {
		rs.inRebuild = true
		w.rebuildArrived++
		if w.rebuildArrived == len(w.ranks) {
			w.completeRebuild()
			return then
		}
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if rs.inRebuild {
				return w.rebuildQ.WaitFiber(f, "mpi rebuild", loop)
			}
			return then
		}
		return w.rebuildQ.WaitFiber(f, "mpi rebuild", loop)
	})
}

// completeRebuild finishes the rendezvous on the last arrival: pure
// state surgery (no clock movement), then one broadcast that wakes the
// parked ranks in arrival order. Matching state needs no reset here:
// failPosted cleared it at the revocation, and a revoked world posts no
// receive and drops every delivery of the superseded epoch.
func (w *World) completeRebuild() {
	for _, rs := range w.ranks {
		rs.inRebuild = false
	}
	for _, c := range w.allComms {
		for i := range c.collSeq {
			c.collSeq[i] = 0
		}
	}
	clear(w.splits)
	// Collective tags restart at zero, so a result a failure interrupted
	// must not be found by the first post-rebuild allgatherv.
	clear(w.gathers)
	w.rebuildArrived = 0
	w.revoked = false
	w.rebuildQ.Broadcast(w.eng)
}
