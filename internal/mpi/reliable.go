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
//     attempt n fires Config.AckTimeout << n after the expected ack
//     instant. After Config.RetryLimit failed attempts the destination
//     is declared unreachable: the world is revoked exactly as a crash
//     would revoke it (failure.go), surfacing *RankUnreachableError
//     through the same Protect/CheckFailed/Rebuild machinery.
//
// Acks are modeled as reliable zero-byte control messages: they bypass
// NIC serialization and pay one (fault-stretched) wire latency. Loss is
// a payload phenomenon here; an unreliable ack channel would only cause
// extra retransmissions the duplicate suppression already absorbs.
//
// Determinism: with Config.MsgFaults nil nothing in this file runs — no
// sequence numbers, no acks, no timers — so zero-loss campaigns are
// byte-identical to an unfaulted build (TrajectoryVersion stays 2). A
// non-nil table is its own trajectory family (the protocol's acks and
// timer events are part of the schedule), deterministic for a fixed
// (table, seed): replays are bit-for-bit across repeats and pooled
// reuse. See the lossy-delivery contract in the internal/sim
// package comment.
package mpi

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// RankUnreachableError reports that the reliable-delivery protocol gave
// up on a destination: RetryLimit retransmissions of one message all
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
	if e.World != "" {
		return fmt.Sprintf("mpi: %s: rank %d unreachable from rank %d (seq %d, %d attempts, epoch %d)",
			e.World, e.Dst, e.Src, e.Seq, e.Attempts, e.Epoch)
	}
	return fmt.Sprintf("mpi: rank %d unreachable from rank %d (seq %d, %d attempts, epoch %d)",
		e.Dst, e.Src, e.Seq, e.Attempts, e.Epoch)
}

func (e *RankUnreachableError) rankFailure() {}

// relKey identifies one unacked in-flight message on its sender.
type relKey struct {
	dst int
	seq uint64
}

// relEntry is the sender-side in-flight record of one reliably-sent
// message. It doubles as its own retransmission timer (sim.Action): the
// pending timer event keeps it alive until the ack (or the retry cap)
// retires it.
type relEntry struct {
	sender *rankState
	dst    *rankState
	commID int
	src    int // sender's rank within commID
	tag    int
	bytes  int64
	data   interface{}
	ser    sim.Time // unstretched payload serialization time
	seq    uint64
	epoch  int
	// attempt counts transmissions so far (1 after the initial send).
	attempt int
	acked   bool
}

// heldMsg is an out-of-order arrival parked in the reorder buffer with
// the instant its receiver-NIC slot completed.
type heldMsg struct {
	m     *message
	ready sim.Time
}

// relRecvBuf is the receiver's per-source reorder state: next is the
// sequence number owed to matching, held parks later arrivals.
type relRecvBuf struct {
	next uint64
	held map[uint64]heldMsg
}

// reliable reports whether the world runs the reliable-delivery
// protocol.
func (w *World) reliable() bool { return w.cfg.MsgFaults != nil }

// Reliable reports whether the world runs the reliable-delivery
// protocol (Config.MsgFaults armed). Rank bodies use it to gate
// protocol-aware behavior such as send-window pacing.
func (r *Rank) Reliable() bool { return r.w.reliable() }

// UnackedSends reports how many of this rank's reliably-sent messages
// are still awaiting acknowledgement. Always 0 on a lossless world.
func (r *Rank) UnackedSends() int { return len(r.rs.relOut) }

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
// exponentially backed-off slack for this attempt.
func (w *World) relTimerAt(sendEnd, ser sim.Time, attempt int) sim.Time {
	slack := w.cfg.AckTimeout
	if attempt > 0 {
		shift := attempt
		if shift > 20 {
			shift = 20 // backoff saturates; virtual-time overflow guard
		}
		slack <<= uint(shift)
	}
	return sendEnd + 2*w.cfg.Net.Latency + ser + slack
}

// relSend runs the sender half of the protocol for a freshly issued
// cross-rank message: assigns its sequence number, registers the
// in-flight entry, applies the attempt-0 verdict, and arms the
// retransmission timer. Called from isendOv in place of scheduling the
// delivery directly; the NIC slot and the request's completion instant
// are already fixed, so the send-side cost model is untouched.
func (src *rankState) relSend(m *message, sendEnd, arrive sim.Time) {
	w := src.world
	e := src.eng
	if src.relNextSeq == nil {
		src.relNextSeq = make(map[int]uint64)
		src.relOut = make(map[relKey]*relEntry)
	}
	seq := src.relNextSeq[m.dst.rank]
	src.relNextSeq[m.dst.rank] = seq + 1
	m.rel = true
	m.seq = seq
	m.sender = src

	en := &relEntry{
		sender: src, dst: m.dst,
		commID: m.commID, src: m.src, tag: m.tag, bytes: m.bytes, data: m.data,
		ser: w.cfg.Net.SerializationTime(m.bytes),
		seq: seq, epoch: m.epoch, attempt: 1,
	}
	src.relOut[relKey{dst: m.dst.rank, seq: seq}] = en

	switch w.cfg.MsgFaults.Verdict(src.rank, m.dst.rank, seq, 0) {
	case netmodel.VerdictDrop:
		src.pool.freeMessage(m)
	case netmodel.VerdictDup:
		d := src.pool.newMessage()
		*d = *m
		e.AtAction(arrive, m)
		e.AtAction(arrive, d)
	default:
		e.AtAction(arrive, m)
	}
	e.AtAction(w.relTimerAt(sendEnd, m.ser, 0), en)
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
	if en.attempt > w.cfg.RetryLimit {
		w.unreachable(en)
		return
	}
	e := src.eng
	now := e.Now()
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
	lat := w.cfg.Net.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		lat = lf.StretchLatency(lat, sendEnd)
	}
	arrive := sendEnd + lat

	switch w.cfg.MsgFaults.Verdict(src.rank, en.dst.rank, en.seq, attempt) {
	case netmodel.VerdictDrop:
	case netmodel.VerdictDup:
		e.AtAction(arrive, en.remsg(ser))
		e.AtAction(arrive, en.remsg(ser))
	default:
		e.AtAction(arrive, en.remsg(ser))
	}
	e.AtAction(w.relTimerAt(sendEnd, ser, attempt), en)
}

// remsg builds a pool message carrying the entry's payload for one
// retransmission.
func (en *relEntry) remsg(ser sim.Time) *message {
	m := en.sender.pool.newMessage()
	m.commID, m.src, m.tag, m.bytes, m.data = en.commID, en.src, en.tag, en.bytes, en.data
	m.dst = en.dst
	m.epoch = en.epoch
	m.ser = ser
	m.rel = true
	m.seq = en.seq
	m.sender = en.sender
	return m
}

// relArrive runs the receiver half of the protocol when a reliable
// message's receiver-NIC slot is reserved: ack the transmission, then
// release it to matching in sequence order, suppressing duplicates and
// parking out-of-order arrivals.
func (w *World) relArrive(m *message, ready sim.Time) {
	dst := m.dst
	e := dst.eng
	if m.epoch != w.epoch {
		// Superseded traffic: no ack (the sender-side entry is equally
		// stale and its timer will retire it).
		dst.pool.freeMessage(m)
		return
	}
	// Ack at the instant the payload is fully received plus one wire hop
	// back. Epoch and identity are captured now; the closure survives the
	// message's recycling.
	ackLat := w.cfg.Net.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		ackLat = lf.StretchLatency(ackLat, ready)
	}
	sender, dstRank, seq, epoch := m.sender, dst.rank, m.seq, m.epoch
	e.At(ready+ackLat, func() { w.relAck(sender, dstRank, seq, epoch) })

	if dst.relIn == nil {
		dst.relIn = make(map[int]*relRecvBuf)
	}
	// The buffer is keyed by the sender's WORLD rank, matching the seq
	// counter's (world src, world dst) pair — m.src is comm-relative, and
	// one pair's stream spans every communicator the two ranks share.
	rb := dst.relIn[m.sender.rank]
	if rb == nil {
		rb = &relRecvBuf{}
		dst.relIn[m.sender.rank] = rb
	}
	switch {
	case m.seq < rb.next:
		// Duplicate of an already-released message (a retransmission that
		// crossed its ack, or a VerdictDup copy): acked above, dropped here.
		dst.pool.freeMessage(m)
	case m.seq == rb.next:
		rb.next++
		w.deliverAt(dst, m, ready)
		// Drain any directly following held arrivals. Their NIC slots
		// completed earlier (reservations are made in arrival order), but
		// in-order release means none is observable before its
		// predecessor: readiness is the running maximum.
		relready := ready
		for {
			h, ok := rb.held[rb.next]
			if !ok {
				break
			}
			delete(rb.held, rb.next)
			rb.next++
			if h.ready > relready {
				relready = h.ready
			}
			w.deliverAt(dst, h.m, relready)
		}
	default:
		if _, dup := rb.held[m.seq]; dup {
			dst.pool.freeMessage(m)
			return
		}
		if rb.held == nil {
			rb.held = make(map[uint64]heldMsg)
		}
		rb.held[m.seq] = heldMsg{m: m, ready: ready}
	}
}

// relAck retires the sender-side entry for an acknowledged message and
// wakes the sender's send-window waiter when the backlog has drained to
// its target.
func (w *World) relAck(sender *rankState, dstRank int, seq uint64, epoch int) {
	if epoch != w.epoch {
		return
	}
	key := relKey{dst: dstRank, seq: seq}
	en := sender.relOut[key]
	if en == nil {
		return // duplicate ack; the entry is already retired
	}
	en.acked = true
	delete(sender.relOut, key)
	if sender.drainQ.Len() > 0 && len(sender.relOut) <= sender.drainTarget {
		sender.drainQ.Broadcast(sender.eng)
	}
}

// unreachable is the retry-cap failure: it revokes the world exactly as
// killRank does — same commit-protocol check, same epoch bump, same
// posted-receive sweep in rank/posting order — but kills and restarts
// nobody; recovery is the application's Protect/Rebuild round trip.
func (w *World) unreachable(en *relEntry) {
	// Commit protocol: once any rank body has returned, the run's output
	// is final and a late failure is dropped (mirrors killRank).
	for _, rs := range w.ranks {
		if rs.finished() {
			return
		}
	}
	e := w.eng
	now := e.Now()
	w.epoch++
	w.revoked = true
	w.failure = &RankUnreachableError{
		World: w.cfg.Name, Src: en.sender.rank, Dst: en.dst.rank,
		Seq: en.seq, Attempts: en.attempt, Epoch: w.epoch,
	}
	for _, peer := range w.ranks {
		w.prScratch = peer.match.pendingPosted(w.prScratch[:0])
		for _, p := range w.prScratch {
			req := p.req
			req.done = true
			req.doneAt = now
			req.timed = false
			req.status = Status{Err: w.failure}
			if req.waiter != nil {
				e.WakeAt(now, req.waiter)
			} else if req.anyw != nil {
				req.anyw.WakeAt(now)
				req.anyw = nil
			}
		}
		peer.match.reset()
	}
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
		clear(rs.relOut)
		for _, rb := range rs.relIn {
			for _, h := range rb.held {
				rs.pool.freeMessage(h.m)
			}
			clear(rb.held)
			rb.next = 0
		}
		if rs.drainQ.Len() > 0 {
			rs.drainQ.Broadcast(rs.eng)
		}
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
	if len(rs.relOut) <= max {
		return next
	}
	f := r.fib
	return f.FlushDebt(func(_ *sim.Fiber) sim.StepFunc {
		rs.drainTarget = max
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if len(rs.relOut) > max {
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
