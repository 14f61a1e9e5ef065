// Reliable delivery over a lossy fabric.
//
// A message-fault campaign (Config.MsgFaults, compiled by
// internal/faults) makes the network lose or duplicate individual
// message transmissions. Arming it switches every cross-rank send —
// point-to-point, collective internals, and file-I/O token traffic
// alike — onto a deterministic reliable-delivery protocol:
//
//   - Each (src, dst) rank pair carries a send sequence number. Every
//     transmission attempt consults netmodel.MsgFaults.Verdict, a pure
//     hash of (seed, src, dst, seq, attempt): delivered, dropped in
//     flight, or duplicated. No generator state is involved, so verdicts
//     are independent of traffic interleaving.
//   - The receiver acks every arrival (including duplicates — the
//     sender may be retransmitting because an earlier ack was slow) and
//     releases messages to matching strictly in sequence order per
//     source, suppressing duplicates and holding out-of-order arrivals
//     in a reorder buffer.
//   - The sender keeps an in-flight entry per unacked message and
//     retransmits on a virtual-time timer with exponential backoff:
//     attempt n fires ackSlack << n after the expected ack instant.
//     After retryLimit failed attempts the destination
//     is declared unreachable: the world is revoked exactly as a crash
//     would revoke it (failure.go), surfacing *RankUnreachableError
//     through the same Protect/CheckFailed/Rebuild machinery.
//
// Acks are modeled as reliable zero-byte control messages: they bypass
// NIC serialization and pay one (fault-stretched) wire latency. Loss is
// a payload phenomenon here; an unreliable ack channel would only cause
// extra retransmissions the duplicate suppression already absorbs.
//
// The protocol pays per loss, not per message. A timer whose ack is
// known to fire first would only find its entry acked, so it is never
// scheduled: a transmission arms its timer when it is sent only if its
// copy is dropped or arrives no earlier than the deadline, and otherwise
// at the first arrival of any copy of the message, only if that copy's
// ack is due no earlier than the deadline (at equal instants the timer
// fires first, as it always has). Which ack retires the entry, and which
// timers retransmit, are unchanged; only no-op timers are gone.
//
// Determinism: with Config.MsgFaults nil nothing in this file runs — no
// sequence numbers, no acks, no timers — so zero-loss campaigns are
// byte-identical to an unfaulted build. A non-nil table is its own
// trajectory family (the protocol's acks and timer events are part of
// the schedule), deterministic for a fixed (table, seed): replays are
// bit-for-bit across repeats and pooled reuse. See the lossy-delivery
// contract in the internal/sim package comment.
package mpi

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// retryLimit caps the retransmissions of one message: the timer after the
// last one revokes the world with *RankUnreachableError.
const retryLimit = 8

// ackSlack is the base retransmission slack, 8x the wire latency: attempt
// n retransmits ackSlack << n after the expected ack instant.
var ackSlack = 8 * fabric.Latency

// RankUnreachableError reports that the reliable-delivery protocol gave
// up on a destination: retryLimit retransmissions of one message all
// went unacknowledged. It revokes the world like a crash does and
// surfaces through the same wait entry points and Protect/FProtect
// recovery paths as *RankFailedError.
type RankUnreachableError struct {
	// World is the world name (Config.Name), empty for anonymous worlds.
	World string
	// Src and Dst are the sender and the unreachable destination rank.
	Src, Dst int
	// Seq is the send sequence number of the message that gave up.
	Seq uint64
	// Attempts is the number of transmissions tried.
	Attempts int
	// Epoch is the revocation epoch the failure opened.
	Epoch int
}

func (e *RankUnreachableError) Error() string {
	return fmt.Sprintf("%srank %d unreachable from rank %d (seq %d, %d attempts, epoch %d)",
		errPrefix(e.World), e.Dst, e.Src, e.Seq, e.Attempts, e.Epoch)
}

func (e *RankUnreachableError) rankFailure() {}

// relEntry is the sender-side in-flight record of one reliably-sent
// message, which every copy of it in flight and every ack of a copy
// points at. It doubles as its own retransmission timer (sim.Action): a
// pending timer event keeps it alive until the ack (or the retry cap)
// retires it.
type relEntry struct {
	sender *rankState
	dst    *rankState
	commID int32
	src    int32 // sender's rank within commID
	tag    int32
	bytes  int64
	data   interface{}
	ser    sim.Time // unstretched payload serialization time
	seq    uint64
	epoch  uint16
	// attempt counts transmissions so far (1 after the initial send).
	attempt int
	acked   bool
	// deadline is the latest transmission's timer instant. armOnArrival
	// marks that timer as not yet scheduled: the first copy to arrive
	// decides whether it is needed (relArrive).
	deadline     sim.Time
	armOnArrival bool
}

// relAck is one ack on its way back to the sender of en: a pooled event,
// drawn from the receiver's pool at the arrival it acknowledges and
// returned there when it fires.
type relAck struct {
	en *relEntry
}

// newAck returns a recycled or fresh ack of en.
func (pl *pools) newAck(en *relEntry) *relAck {
	var a *relAck
	if n := len(pl.ackFree); n > 0 {
		a = pl.ackFree[n-1]
		pl.ackFree = pl.ackFree[:n-1]
	} else {
		a = &relAck{}
	}
	a.en = en
	return a
}

// Fire delivers the ack: it retires the entry unless it is stale (an
// earlier epoch) or already retired by another copy's ack, and wakes the
// sender's send-window waiter when the backlog has drained to its target.
func (a *relAck) Fire() {
	en := a.en
	a.en = nil
	pl := en.dst.pool
	pl.ackFree = append(pl.ackFree, a)
	sender := en.sender
	if en.acked || en.epoch != sender.world.epoch {
		return
	}
	en.acked = true
	sender.relUnacked--
	if sender.relUnacked <= sender.drainTarget {
		sender.drainQ.Broadcast(sender.eng)
	}
}

// relRecvBuf is the receiver's per-source reorder state: next is the
// sequence number owed to matching, held parks later arrivals.
type relRecvBuf struct {
	next uint64
	held map[uint64]*message
}

// reliable reports whether the world runs the reliable-delivery
// protocol.
func (w *World) reliable() bool { return w.cfg.MsgFaults != nil }

// Reliable reports whether the world runs the reliable-delivery
// protocol (Config.MsgFaults armed). Rank bodies use it to gate
// protocol-aware behavior such as send-window pacing.
func (r *Rank) Reliable() bool { return r.w.reliable() }

// Retransmits reports the total number of timer-driven retransmissions
// across all ranks. Always 0 on a lossless world.
func (w *World) Retransmits() int64 {
	var total int64
	for _, rs := range w.ranks {
		total += rs.retransmits
	}
	return total
}

// relTimerAt computes the retransmission deadline for a transmission
// whose NIC slot ends at sendEnd: the expected ack instant (wire hop,
// receiver serialization, ack hop back, all at base latency — an
// estimate; only determinism matters, not tightness) plus the
// exponentially backed-off slack for this attempt. The attempt is at most
// retryLimit, so the shift cannot overflow.
func relTimerAt(sendEnd, ser sim.Time, attempt int) sim.Time {
	return sendEnd + 2*fabric.Latency + ser + ackSlack<<attempt
}

// relSend runs the sender half of the protocol for a freshly issued
// cross-rank message: assigns its sequence number, registers the
// in-flight entry and transmits attempt 0. Called from isendOv in place of
// scheduling the delivery directly; the NIC slot and the request's
// completion instant are already fixed, so the send-side cost model is
// untouched.
func (src *rankState) relSend(m *message, sendEnd, arrive sim.Time) {
	w := src.world
	if len(src.relNextSeq) < len(w.ranks) {
		src.relNextSeq = make([]uint64, len(w.ranks))
	}
	seq := src.relNextSeq[m.dst.rank]
	src.relNextSeq[m.dst.rank] = seq + 1
	src.relUnacked++
	en := &relEntry{
		sender: src, dst: m.dst,
		commID: m.commID, src: m.src, tag: m.tag, bytes: m.bytes, data: m.data,
		ser: fabric.SerializationTime(m.bytes),
		seq: seq, epoch: m.epoch, attempt: 1,
	}
	m.rel = en
	en.transmit(m, arrive, relTimerAt(sendEnd, m.slot, 0), 0)
}

// transmit puts one attempt's copy m on the wire as its verdict says and
// arms the attempt's timer for deadline: at once when no ack can beat it
// (the copy is dropped, or arrives no earlier than the deadline), else at
// the first arrival of a copy (relArrive).
func (en *relEntry) transmit(m *message, arrive, deadline sim.Time, attempt int) {
	src := en.sender
	e := src.eng
	en.deadline = deadline
	switch src.world.cfg.MsgFaults.Verdict(src.rank, en.dst.rank, en.seq, attempt) {
	case netmodel.VerdictDrop:
		src.pool.freeMessage(m)
		e.AtAction(deadline, en)
		return
	case netmodel.VerdictDup:
		d := src.pool.newMessage()
		*d = *m
		e.AtAction(arrive, m)
		e.AtAction(arrive, d)
	default:
		e.AtAction(arrive, m)
	}
	if arrive >= deadline {
		e.AtAction(deadline, en)
	} else {
		en.armOnArrival = true
	}
}

// Fire is the retransmission timer: a no-op for acked or superseded
// entries, a world revocation at the retry cap, and otherwise a fresh
// transmission of the payload with the next attempt's verdict and a
// backed-off follow-up timer.
func (en *relEntry) Fire() {
	src := en.sender
	w := src.world
	if en.acked || en.epoch != w.epoch {
		return
	}
	if en.attempt > retryLimit {
		w.unreachable(en)
		return
	}
	now := src.eng.Now()
	attempt := en.attempt
	en.attempt++
	src.retransmits++

	// The retransmission pays the same wire costs as the original send,
	// stretched through any link-fault windows covering this instant.
	ser := en.ser
	if lf := w.cfg.LinkFaults; lf != nil {
		ser = lf.StretchSerialization(ser, now)
	}
	_, sendEnd := src.sendLink.Reserve(now, ser)
	lat := fabric.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		lat = lf.StretchLatency(lat, sendEnd)
	}
	en.transmit(en.remsg(ser), sendEnd+lat, relTimerAt(sendEnd, ser, attempt), attempt)
}

// remsg builds a pool message carrying the entry's payload for one
// retransmission.
func (en *relEntry) remsg(ser sim.Time) *message {
	m := en.sender.pool.newMessage()
	m.commID, m.src, m.tag, m.bytes, m.data = en.commID, en.src, en.tag, en.bytes, en.data
	m.dst = en.dst
	m.epoch = en.epoch
	m.slot = ser
	m.rel = en
	return m
}

// relArrive runs the receiver half of the protocol when a reliable
// message's receiver-NIC slot is reserved: ack the transmission, then
// release it to matching in sequence order, suppressing duplicates and
// parking out-of-order arrivals.
func (w *World) relArrive(m *message, ready sim.Time) {
	dst := m.dst
	e := dst.eng
	en := m.rel
	if m.epoch != w.epoch {
		// Superseded traffic: no ack (the sender-side entry is equally
		// stale and its timer will retire it).
		dst.pool.freeMessage(m)
		return
	}
	// Ack at the instant the payload is fully received plus one wire hop
	// back.
	ackLat := fabric.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		ackLat = lf.StretchLatency(ackLat, ready)
	}
	ackAt := ready + ackLat
	if en.armOnArrival {
		// The first copy to arrive since the transmission decides its
		// timer: if this copy's ack is due before the deadline it retires
		// the entry first and the timer would find nothing to do. Armed,
		// the timer is pushed ahead of the ack, so that at equal instants
		// it fires first, as it did when every timer was armed at
		// transmission.
		en.armOnArrival = false
		if !en.acked && ackAt >= en.deadline {
			en.sender.eng.AtAction(en.deadline, en)
		}
	}
	e.AtAction(ackAt, dst.pool.newAck(en))

	// The buffer is indexed by the sender's WORLD rank, matching the seq
	// counter's (world src, world dst) pair — m.src is comm-relative, and
	// one pair's stream spans every communicator the two ranks share.
	if len(dst.relIn) < len(w.ranks) {
		dst.relIn = make([]relRecvBuf, len(w.ranks))
	}
	rb := &dst.relIn[en.sender.rank]
	switch {
	case en.seq < rb.next:
		// Duplicate of an already-released message (a retransmission that
		// crossed its ack, or a VerdictDup copy): acked above, dropped here.
		dst.pool.freeMessage(m)
	case en.seq == rb.next:
		rb.next++
		w.deliverAt(dst, m, ready)
		// Release any directly following held arrivals. The receiver NIC
		// reserves its slots in arrival order, so theirs ended no later
		// than this one's; in-order release makes each observable when
		// its predecessor is, at ready.
		for {
			h, ok := rb.held[rb.next]
			if !ok {
				break
			}
			delete(rb.held, rb.next)
			rb.next++
			w.deliverAt(dst, h, ready)
		}
	default:
		if _, dup := rb.held[en.seq]; dup {
			dst.pool.freeMessage(m)
			return
		}
		if rb.held == nil {
			rb.held = make(map[uint64]*message)
		}
		rb.held[en.seq] = m
	}
}

// unreachable is the retry-cap failure: it revokes the world exactly as
// killRank does — same commit-protocol check, same epoch bump, same
// posted-receive sweep in rank/posting order — but kills and restarts
// nobody; recovery is the application's Protect/Rebuild round trip.
func (w *World) unreachable(en *relEntry) {
	if w.committed() {
		return
	}
	w.bumpEpoch()
	w.revoked = true
	w.failure = &RankUnreachableError{
		World: w.cfg.Name, Src: en.sender.rank, Dst: en.dst.rank,
		Seq: en.seq, Attempts: en.attempt, Epoch: int(w.epoch),
	}
	w.failPosted(nil)
	w.relReset()
}

// relReset clears every rank's reliable-delivery state after a
// revocation (crash or unreachability): in-flight entries and sequence
// counters drop so both sides of every pair restart at sequence 0 after
// the rebuild, reorder buffers release their held messages, and parked
// send-window waiters wake to observe the failure. Stale timers and
// acks retire themselves on the epoch check. Pool free order for held
// messages follows map iteration, which is unobservable: recycled
// message objects are fully re-initialized on reuse.
func (w *World) relReset() {
	if !w.reliable() {
		return
	}
	for _, rs := range w.ranks {
		clear(rs.relNextSeq)
		rs.relUnacked = 0
		for i := range rs.relIn {
			rb := &rs.relIn[i]
			for _, h := range rb.held {
				rs.pool.freeMessage(h)
			}
			clear(rb.held)
			rb.next = 0
		}
		rs.drainQ.Broadcast(rs.eng)
	}
}

// WaitSendWindow blocks until at most max of this rank's reliable sends
// remain unacknowledged — the ack'd sliding window that bounds a
// fire-and-forget producer's in-flight state. On a lossless world (or a
// backlog already within the window) it returns immediately without
// flushing debt or yielding, so window-paced bodies are byte-identical
// to unpaced ones when the campaign is empty. If the world is revoked
// while waiting, the pending failure surfaces as a panic for Protect,
// like every other blocking operation.
func (r *Rank) WaitSendWindow(max int) {
	r.Block("WaitSendWindow", func(next sim.StepFunc) sim.StepFunc { return r.FWaitSendWindow(max, next) })
}

// FWaitSendWindow is WaitSendWindow in continuation form, continuing
// with next once the backlog is within the window; it diverts to the
// rank's failure continuation on revocation.
func (r *Rank) FWaitSendWindow(max int, next sim.StepFunc) sim.StepFunc {
	rs := r.rs
	if rs.relUnacked <= max {
		return next
	}
	f := r.fib
	return f.FlushDebt(func(_ *sim.Fiber) sim.StepFunc {
		rs.drainTarget = max
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if rs.relUnacked > max {
				if r.w.revoked {
					return r.failNow()
				}
				return rs.drainQ.WaitFiber(f, "mpi send-window", loop)
			}
			if r.w.revoked {
				return r.failNow()
			}
			return next
		}
		return loop(nil)
	})
}
