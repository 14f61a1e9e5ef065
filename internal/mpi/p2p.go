package mpi

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// message is an in-flight or delivered point-to-point message. src is the
// sender's rank within the communicator identified by commID. Messages
// are bound to receives at arrival time (one event earlier than the end of
// the receiver-NIC slot), but completion is never observable before the
// slot ends — see deliverAt. consumed marks messages already matched out
// of the unexpected queue (lazy deletion in the index's lists); held
// counts the lists that still hold it, and the last to let go recycles it.
//
// Messages are pooled per shard (see pools.newMessage) and double as
// their own delivery events (sim.Action), so the steady-state send path
// allocates nothing. The layout is one 64-byte cache line on 64-bit
// hosts (DESIGN.md, "Continuations and message lifetime"): fields that
// are never live together share a word, self-sends are their own action
// type (selfMessage) rather than a flag, and the narrowed fields are
// guarded where their values are made (nextCommID, nextCollTag,
// checkAppTag, Config.Validate, bumpEpoch).
type message struct {
	data  interface{}
	bytes int64
	// dst is the receiving rank, read when the delivery event fires.
	dst *rankState
	// rel is the sender's in-flight entry of a reliably-sent message
	// (reliable.go): its sequence number, its sender to ack and its timer.
	// Nil on lossless worlds.
	rel *relEntry
	// slot is the receiver-NIC slot: its length (the serialization time)
	// from the send until the delivery event fires, and its end (the
	// instant the payload is fully received) from then on, once the
	// message waits in the unexpected queue.
	slot   sim.Time
	commID int32
	src    int32
	tag    int32
	// epoch is the world's revocation epoch when the message was sent;
	// delivery drops messages from a superseded epoch (failure.go), so
	// traffic from a pre-crash attempt never matches a post-rebuild
	// receive. Always 0 on crash-free runs.
	epoch uint16
	// held is at most five: the arrival list, the concrete bucket and
	// the three wildcard side lists.
	held     uint8
	consumed bool
}

// Fire delivers a network message: it fires at wire arrival, reserves the
// receiver NIC and becomes observable when its serialization slot ends.
func (m *message) Fire() {
	// Delivery events fire on the destination rank's engine (its shard's,
	// in parallel mode), so the receiver NIC and matching state are only
	// ever touched by that engine's thread of control.
	dst := m.dst
	_, recvEnd := dst.recvLink.Reserve(dst.eng.Now(), m.slot)
	if m.rel != nil {
		// Reliable transmission: ack, suppress duplicates, release to
		// matching in sequence order (reliable.go).
		dst.world.relArrive(m, recvEnd)
		return
	}
	dst.world.deliverAt(dst, m, recvEnd)
}

// selfMessage is a message a rank sends to itself, scheduled as its own
// action type: it involves no NIC or wire and is delivered, ready, when
// it fires.
type selfMessage message

// Fire delivers the self-send at once.
func (s *selfMessage) Fire() {
	m := (*message)(s)
	m.dst.world.deliverAt(m.dst, m, m.dst.eng.Now())
}

// postedRecv is a pending receive waiting for a matching message. seq is
// its posting order within the rank, assigned by the matching index.
type postedRecv struct {
	commID int
	src    int // comm rank or AnySource
	tag    int // or AnyTag
	seq    uint64
	req    *Request
}

// Status describes a completed receive.
type Status struct {
	// Source is the sender's rank in the receive's communicator.
	Source int
	// Tag is the message tag.
	Tag int
	// Bytes is the message payload size used for costing.
	Bytes int64
	// Data is the payload, passed by reference (zero copy). Receivers
	// must treat shared buffers as immutable.
	Data interface{}
	// Err is non-nil when the operation completed by failure instead of
	// delivery: a peer rank crashed and the world is revoked (ULFM-style
	// peer-failure notification, see failure.go). The wait entry points
	// surface it before any status reaches application code.
	Err error
}

// Request is the handle of a nonblocking operation. Wait, WaitAll, WaitAny
// and Test observe its completion.
//
// Send requests are "timed": their completion instant (the end of the
// sender's NIC slot) is known when the send is issued, so waiting on them
// advances the clock directly instead of sleeping on an event. Receive
// requests complete when a matching message is delivered.
//
// Requests are pooled per world: the wait that observes a request's
// completion (Wait, WaitAll, WaitAny and the F* forms) CONSUMES it — the
// handle recycles and must not be used again. Test does not consume (the
// documented Test-then-Wait sequence stays valid); a request completed
// only ever by Test is simply left to the GC.
type Request struct {
	done      bool
	timed     bool
	doneAt    sim.Time
	isRecv    bool
	ovCharged bool // receive overhead charged (exactly once per request)
	// waiter is the wait parked on this request, if any. Delivery resumes
	// its fiber directly — no spurious wakeups of unrelated waiters — and,
	// when the completion instant is still ahead, straight into the settle
	// step at the instant the wait settles to (fwait.resumeAt).
	waiter *fwait
	// anyw is the waker of a process parked in WaitAny with this
	// request in its set, if any: the multi-request counterpart of waiter.
	// Delivery wakes the waker's target once at the completion instant,
	// however many of its registered requests complete while it is parked
	// (sim.Waker dedupes); the resumed waiter deregisters the rest.
	anyw *sim.Waker
	// freed marks a request sitting in the world pool: every wait entry
	// point checks it, so a stale handle (used again after the consuming
	// wait) fails loudly instead of silently corrupting the pool.
	freed  bool
	status Status
}

// checkLive panics if q is a consumed (recycled) handle.
func (q *Request) checkLive() {
	if q.freed {
		panic("mpi: use of a Request already consumed by a wait")
	}
}

// completedBy reports whether the request is complete as of virtual time
// now.
func (q *Request) completedBy(now sim.Time) bool {
	return q.done || (q.timed && now >= q.doneAt)
}

// setStatus records what the request reports on completion. The
// completion paths write it into the request in place: a Status built
// and copied by value goes through stack temporaries that wait behind
// the request's and the message's cache lines.
func (q *Request) setStatus(src, tag int, bytes int64, data interface{}) {
	q.status.Source, q.status.Tag, q.status.Bytes, q.status.Data = src, tag, bytes, data
}

// Isend starts a nonblocking send of bytes payload bytes (and optional
// data) to dst with the given tag. The caller pays the configured send
// overhead immediately; the returned request completes when the message
// has been handed to the network (buffered-send semantics). Isend never
// blocks. Tags at or above collTagBase are the collectives' and panic.
func (c *Comm) Isend(r *Rank, dst, tag int, bytes int64, data interface{}) *Request {
	checkAppTag("Isend", tag)
	return c.isend(r, dst, tag, bytes, data)
}

// isend is Isend for any tag, the collectives' included.
func (c *Comm) isend(r *Rank, dst, tag int, bytes int64, data interface{}) *Request {
	return c.isendOv(r, r.fib, dst, tag, bytes, data, fabric.SendOverhead)
}

// checkAppTag panics unless tag is an application tag: the range from
// collTagBase up is reserved for collectives, which AnyTag never selects,
// and a message carries its tag in 32 bits.
func checkAppTag(op string, tag int) {
	if tag >= collTagBase || tag < math.MinInt32 {
		panic(fmt.Sprintf("mpi: %s with tag %d, outside the application tags [%d, %d): int32, below the range reserved for collectives", op, tag, math.MinInt32, collTagBase))
	}
}

// IsendAndFree is Isend followed by immediately releasing the request —
// the MPI_Request_free idiom for fire-and-forget sends under buffered
// semantics. Send completion is never observable through a freed
// request, so none is built: the message is injected and the call
// returns, and on a revoked world it returns at once, which is all a
// failed-then-freed request amounted to. The stream library's element
// path and the apps' aggregate forwards use it.
func (c *Comm) IsendAndFree(r *Rank, dst, tag int, bytes int64, data interface{}) {
	checkAppTag("IsendAndFree", tag)
	c.checkSend(dst, bytes)
	if r.w.revoked {
		return
	}
	c.inject(r, r.fib, c.RankOf(r), dst, tag, bytes, data, fabric.SendOverhead)
}

// checkSend panics on a destination outside c or a negative size.
func (c *Comm) checkSend(dst int, bytes int64) {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d", dst, len(c.members)))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
}

// isendOv is Isend on behalf of proc, which may be a helper process of the
// same rank (nonblocking collectives), with an explicit sender CPU
// overhead (persistent requests pay a reduced per-start cost): the
// request around inject.
func (c *Comm) isendOv(r *Rank, proc *sim.Fiber, dst, tag int, bytes int64, data interface{}, overhead sim.Time) *Request {
	c.checkSend(dst, bytes)
	w := r.w
	if w.revoked {
		// The world is revoked by a crash: the send completes immediately
		// with failure — no overhead, no counters, no wire traffic.
		return w.failedRequest()
	}
	me := c.RankOf(r)
	req := r.rs.pool.newRequest()
	if sendEnd, self := c.inject(r, proc, me, dst, tag, bytes, data, overhead); self {
		req.done = true
	} else {
		// The sender's NIC slot is granted at injection, so the send
		// request's completion instant is already known: no event needed.
		req.timed = true
		req.doneAt = sendEnd
	}
	req.setStatus(me, tag, bytes, data)
	return req
}

// inject sends one message from r, rank me of c, to comm rank dst on
// behalf of proc: it charges the sender CPU overhead, counts the send and
// schedules the delivery. It reports the end of the sender's NIC slot,
// or self true for a self-send, which involves no NIC. The world must not
// be revoked.
func (c *Comm) inject(r *Rank, proc *sim.Fiber, me, dst, tag int, bytes int64, data interface{}, overhead sim.Time) (sendEnd sim.Time, self bool) {
	w := r.w
	src := r.rs
	dstState := w.ranks[c.members[dst]]

	// Sender CPU overhead (the LogGP "o"), accumulated as debt so that
	// bursts of sends cost one engine yield instead of one per message.
	proc.AddDebt(overhead)
	src.msgsSent++

	e := src.eng
	msg := src.pool.newMessage()
	msg.commID, msg.src, msg.tag, msg.bytes, msg.data = int32(c.id), int32(me), int32(tag), bytes, data
	msg.dst = dstState
	msg.epoch = w.epoch

	if dstState == src {
		// Self-send: no NIC or wire involvement.
		e.AtAction(e.Now(), (*selfMessage)(msg))
		return 0, true
	}

	// Sender NIC serialization, starting after any CPU debt the sending
	// process has accumulated. With link faults scheduled, the bandwidth
	// window covering the slot request inflates serialization and the
	// latency window covering the flight start inflates the wire hop; the
	// guards keep the fault-free hot path byte-identical.
	ser := fabric.SerializationTime(bytes)
	if lf := w.cfg.LinkFaults; lf != nil {
		ser = lf.StretchSerialization(ser, e.Now()+proc.Debt())
	}
	_, sendEnd = src.sendLink.Reserve(e.Now()+proc.Debt(), ser)
	// Wire latency after the slot, then receiver NIC serialization at
	// arrival time (arrivals occur in sendEnd order, so receiver-side
	// reservations are made in arrival order). The message is bound to a
	// receive at arrival; completion becomes observable at recvEnd. This
	// needs one event per message instead of two, and the known completion
	// instant lets waiting receivers advance their clock instead of
	// parking.
	lat := fabric.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		lat = lf.StretchLatency(lat, sendEnd)
	}
	arrive := sendEnd + lat
	msg.slot = ser
	if w.reliable() {
		// Lossy fabric: the reliable protocol takes over delivery —
		// sequence number, attempt-0 verdict, retransmission timer. The
		// send's completion instant (the NIC slot) is already fixed above,
		// so buffered-send semantics and send-side cost are unchanged.
		// Incompatible with the sharded mode, so this branch never races
		// the Post path below.
		src.relSend(msg, sendEnd, arrive)
		return sendEnd, false
	}
	if w.group != nil {
		// Parallel mode: every cross-rank delivery is keyed by the sender's
		// program order (deliveryPri), even when both ranks share a shard —
		// the merge order at the receiver must not depend on placement.
		// Post routes same-engine deliveries through the priority heap and
		// cross-shard ones through the window outbox.
		e.Post(dstState.eng, arrive, src.deliveryPri(), msg)
	} else {
		e.AtAction(arrive, msg)
	}
	return sendEnd, false
}

// deliverAt matches a message against posted receives or queues it. The
// earliest-posted matching receive wins (see matchIndex.takePosted).
// ready is the instant the payload is fully received (the end of the
// receiver-NIC slot); a receive matched before then completes as a timed
// request at ready, which is exactly when the separate delivery event
// used to complete it.
//
// For network traffic, binding at arrival instead of ready changes no
// outcome: per-rank NIC reservations are made in arrival order, so ready
// instants are monotonic in arrival order and the match order is the same
// either way; receives posted between arrival and ready would have lost
// the match to any earlier-posted receive under either scheme, or else
// find the message in the unexpected queue (with its readiness instant)
// themselves.
//
// One rule binds on both sides: a message goes to the earliest-posted
// receive that accepts it, and a receive to the earliest-arrived message
// it accepts, completing at that message's readiness even when a
// self-send, ready at once, arrived behind it (matching order across
// sources is unspecified in MPI).
func (w *World) deliverAt(dst *rankState, m *message, ready sim.Time) {
	if m.epoch != w.epoch {
		// Traffic from a superseded epoch (sent before a crash revoked the
		// world): drop it so a pre-crash attempt's messages never match a
		// post-rebuild receive.
		dst.pool.freeMessage(m)
		return
	}
	e := dst.eng
	if p := dst.match.takePosted(m); p != nil {
		req := p.req
		req.setStatus(int(m.src), int(m.tag), m.bytes, m.data)
		dst.pool.freePostedRecv(p)
		dst.pool.freeMessage(m)
		if ready > e.Now() {
			req.timed = true
			req.doneAt = ready
			// Nobody can act on the completion before ready. A wait parked
			// on this request settles at a known instant from here, so its
			// fiber resumes once, at that instant, in its settle step; a
			// WaitAny waiter registered on it wakes at ready; waiters that
			// arrive after this instant see the timed request directly.
			if req.waiter != nil {
				req.waiter.resumeAt(ready)
			} else if req.anyw != nil {
				req.anyw.WakeAt(ready)
				req.anyw = nil
			}
			return
		}
		req.done = true
		// No WaitAny waiter can be registered here. A network delivery is
		// ready at least one MessageGap after it arrives, so only a
		// self-send completes a receive now, and its SendOverhead is debt:
		// FWaitAny flushes that debt, which suspends until the
		// self-delivery has fired, before it registers its waker.
		if req.waiter != nil {
			e.WakeAt(e.Now(), req.waiter.f)
		}
		return
	}
	// An unmatched arrival completes no request, so nobody needs waking: a
	// blocked WaitAny waiter's requests are all posted receives, which
	// this message just failed to match.
	m.slot = ready
	dst.match.addUnexpected(m)
}

// Irecv posts a nonblocking receive from src (or AnySource) with the given
// application tag (or AnyTag, which selects application tags only).
func (c *Comm) Irecv(r *Rank, src, tag int) *Request {
	checkAppTag("Irecv", tag)
	return c.irecvFor(r, src, tag)
}

func (c *Comm) irecvFor(r *Rank, src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= len(c.members)) {
		panic(fmt.Sprintf("mpi: Irecv from rank %d of %d", src, len(c.members)))
	}
	if r.w.revoked {
		// The world is revoked by a crash: the receive completes
		// immediately with failure instead of parking forever.
		return r.w.failedRequest()
	}
	rs := r.rs
	req := rs.pool.newRequest()
	req.isRecv = true
	// Match against already-arrived messages first (FIFO arrival order
	// preserves MPI's non-overtaking guarantee per (source, tag)). A
	// message still on the receiver NIC completes the request at its
	// readiness instant.
	if readyAt, ok := rs.match.takeQueued(c.id, src, tag, req); ok {
		if readyAt > rs.eng.Now() {
			req.timed = true
			req.doneAt = readyAt
		} else {
			req.done = true
		}
		return req
	}
	p := rs.pool.newPostedRecv()
	p.commID, p.src, p.tag, p.req = c.id, src, tag, req
	rs.match.post(p)
	return req
}

// Send is a blocking send: Isend followed by Wait. With buffered-send
// semantics it returns once the message is handed to the network, so
// pairwise exchanges do not deadlock.
func (c *Comm) Send(r *Rank, dst, tag int, bytes int64, data interface{}) {
	r.Block("Send", func(next sim.StepFunc) sim.StepFunc { return c.FSend(r, dst, tag, bytes, data, next) })
}

// Recv is a blocking receive.
func (c *Comm) Recv(r *Rank, src, tag int) Status {
	return Await(r, "Recv", func(then func(Status) sim.StepFunc) sim.StepFunc { return c.FRecv(r, src, tag, then) })
}

// Wait blocks until req completes and returns its status. Completed
// receives additionally charge the configured receive overhead to the
// calling process.
func (c *Comm) Wait(r *Rank, req *Request) Status {
	return Await(r, "Wait", func(then func(Status) sim.StepFunc) sim.StepFunc { return c.FWait(r, req, then) })
}

// WaitAll waits for every request in order. Requests that are already
// complete when reached are settled without suspending, and their
// receive overheads accumulate as CPU debt (the way AddDebt coalesces
// send overhead) — one clock advance at the end instead of one per
// request. The virtual-time outcome is identical to waiting on each
// request in sequence.
//
// The returned slice is scratch storage owned by the rank and is reused
// by that rank's next WaitAll call; callers that need the statuses longer
// must copy them out.
func (c *Comm) WaitAll(r *Rank, reqs ...*Request) []Status {
	return Await(r, "WaitAll", func(then func([]Status) sim.StepFunc) sim.StepFunc { return c.FWaitAll(r, reqs, then) })
}

// WaitAny blocks until at least one request has completed and returns the
// lowest completed index with its status. The paper's imbalance-absorption
// mechanism ("process the first available data") is built on this.
func (c *Comm) WaitAny(r *Rank, reqs []*Request) (idx int, st Status) {
	r.Block("WaitAny", func(next sim.StepFunc) sim.StepFunc {
		return c.FWaitAny(r, reqs, func(i int, s Status) sim.StepFunc {
			idx, st = i, s
			return next
		})
	})
	return idx, st
}

// Test reports whether req has completed, consuming receive overhead on
// the first successful test of a receive. The overhead is charged exactly
// once per request (ovCharged), so Test-then-Wait sequences neither
// double- nor under-charge.
func (c *Comm) Test(r *Rank, req *Request) (ok bool, st Status) {
	r.Block("Test", func(next sim.StepFunc) sim.StepFunc {
		return c.FTest(r, req, func(o bool, s Status) sim.StepFunc {
			ok, st = o, s
			return next
		})
	})
	return ok, st
}
