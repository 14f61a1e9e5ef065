package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// simProc aliases the simulator's process type; operations may run on a
// rank's main process or on a helper process of the same rank.
type simProc = sim.Proc

// exec is the execution-context subset shared by sim.Proc and sim.Fiber
// that the synchronous runtime paths need: overhead accounting for the
// send fast path. Blocking paths stay representation-specific (waitOn for
// processes, the fiber wait continuations in fiber.go).
type exec interface {
	AddDebt(sim.Time)
	Debt() sim.Time
}

// message is an in-flight or delivered point-to-point message. src is the
// sender's rank within the communicator identified by commID. readyAt is
// the end of the receiver-NIC serialization slot: the instant the payload
// is fully received. Messages are bound to receives at arrival time (one
// event earlier than readyAt), but completion is never observable before
// readyAt — see deliverAt. consumed marks messages already matched out of
// the unexpected queue (lazy deletion in the index's lists); held counts
// the lists that still hold it, and the last to let go recycles it.
//
// Messages are pooled per shard (see pools.newMessage) and double as
// their own delivery events (sim.Action), so the steady-state send path
// allocates nothing.
type message struct {
	commID   int
	src      int
	tag      int
	bytes    int64
	data     interface{}
	readyAt  sim.Time
	consumed bool
	held     int32
	// epoch is the world's revocation epoch when the message was sent;
	// delivery drops messages from a superseded epoch (failure.go), so
	// traffic from a pre-crash attempt never matches a post-rebuild
	// receive. Always 0 on crash-free runs.
	epoch int

	// Delivery state for Fire.
	dst  *rankState
	ser  sim.Time
	self bool

	// Reliable-delivery fields (reliable.go), set only when the world's
	// message-fault campaign arms the protocol: seq is the per-(src, dst)
	// send sequence number, sender the acking target. Zero on lossless
	// worlds.
	rel    bool
	seq    uint64
	sender *rankState
}

// Fire delivers the message: self-sends deliver immediately; network
// messages fire at wire arrival, reserve the receiver NIC and become
// observable when its serialization slot ends.
func (m *message) Fire() {
	// Delivery events fire on the destination rank's engine (its shard's,
	// in parallel mode), so the receiver NIC and matching state are only
	// ever touched by that engine's thread of control.
	w := m.dst.world
	e := m.dst.eng
	if m.self {
		w.deliverAt(m.dst, m, e.Now())
		return
	}
	_, recvEnd := m.dst.recvLink.Reserve(e.Now(), m.ser)
	if m.rel {
		// Reliable transmission: ack, suppress duplicates, release to
		// matching in sequence order (reliable.go).
		w.relArrive(m, recvEnd)
		return
	}
	w.deliverAt(m.dst, m, recvEnd)
}

// status is what a receive matched with m reports.
func (m *message) status() Status {
	return Status{Source: m.src, Tag: m.tag, Bytes: m.bytes, Data: m.data}
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
	// waiter is the process or fiber parked in Wait on this request, if
	// any. Delivery wakes it directly at the completion instant — no
	// spurious wakeups of unrelated waiters.
	// Either representation consumes exactly one wake event, so the
	// trajectory is independent of which one waits.
	waiter sim.Runnable
	// anyw is the waker of a process or fiber parked in WaitAny with this
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

// Done reports whether the operation has completed; it is a pure query
// and consumes no overhead.
func (q *Request) Done(now sim.Time) bool { return q.completedBy(now) }

// Isend starts a nonblocking send of bytes payload bytes (and optional
// data) to dst with the given tag. The caller pays the configured send
// overhead immediately; the returned request completes when the message
// has been handed to the network (buffered-send semantics). Isend never
// blocks, so it serves both process representations.
func (c *Comm) Isend(r *Rank, dst, tag int, bytes int64, data interface{}) *Request {
	return c.isendOv(r, r.ctx(), dst, tag, bytes, data, r.w.cfg.Net.SendOverhead)
}

// IsendAndFree is Isend followed by immediately releasing the request —
// the MPI_Request_free idiom for fire-and-forget sends under buffered
// semantics. Send completion is never observable through a request (send
// requests are timed at issue and referenced nowhere else), so recycling
// it at once is safe and the send costs no allocation. The stream
// library's element path and the apps' aggregate forwards use it.
func (c *Comm) IsendAndFree(r *Rank, dst, tag int, bytes int64, data interface{}) {
	req := c.Isend(r, dst, tag, bytes, data)
	r.rs.pool.freeRequest(req)
}

// isendFrom implements Isend on behalf of proc, which may be a helper
// process of the same rank (nonblocking collectives).
func (c *Comm) isendFrom(r *Rank, proc *simProc, dst, tag int, bytes int64, data interface{}) *Request {
	return c.isendOv(r, proc, dst, tag, bytes, data, r.w.cfg.Net.SendOverhead)
}

// isendOv is isendFrom with an explicit sender CPU overhead (persistent
// requests pay a reduced per-start cost). It accepts either process
// representation: the send path never blocks, so overhead accounting is
// all it needs from the caller's execution context.
func (c *Comm) isendOv(r *Rank, proc exec, dst, tag int, bytes int64, data interface{}, overhead sim.Time) *Request {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d", dst, len(c.members)))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	w := r.w
	if w.revoked {
		// The world is revoked by a crash: the send completes immediately
		// with failure — no overhead, no counters, no wire traffic.
		return w.failedRequest()
	}
	net := w.cfg.Net
	me := c.RankOf(r)
	src := r.rs
	dstState := w.ranks[c.members[dst]]
	req := src.pool.newRequest()

	// Sender CPU overhead (the LogGP "o"), accumulated as debt so that
	// bursts of sends cost one engine yield instead of one per message.
	proc.AddDebt(overhead)
	src.msgsSent++
	src.bytesSent += bytes

	e := src.eng
	msg := src.pool.newMessage()
	msg.commID, msg.src, msg.tag, msg.bytes, msg.data = c.id, me, tag, bytes, data
	msg.dst = dstState
	msg.epoch = w.epoch

	if dstState == src {
		// Self-send: no NIC or wire involvement.
		req.done = true
		req.status = Status{Source: me, Tag: tag, Bytes: bytes, Data: data}
		msg.self = true
		e.AtAction(e.Now(), msg)
		return req
	}

	// Sender NIC serialization, starting after any CPU debt the sending
	// process has accumulated. The slot is granted now, so the send
	// request's completion instant is already known: no event needed.
	// With link faults scheduled, the bandwidth window covering the slot
	// request inflates serialization and the latency window covering the
	// flight start inflates the wire hop; the guards keep the fault-free
	// hot path byte-identical.
	ser := net.SerializationTime(bytes)
	if lf := w.cfg.LinkFaults; lf != nil {
		ser = lf.StretchSerialization(ser, e.Now()+proc.Debt())
	}
	_, sendEnd := src.sendLink.Reserve(e.Now()+proc.Debt(), ser)
	req.timed = true
	req.doneAt = sendEnd
	req.status = Status{Source: me, Tag: tag, Bytes: bytes, Data: data}
	// Wire latency after the slot, then receiver NIC serialization at
	// arrival time (arrivals occur in sendEnd order, so receiver-side
	// reservations are made in arrival order). The message is bound to a
	// receive at arrival; completion becomes observable at recvEnd. This
	// needs one event per message instead of two, and the known completion
	// instant lets waiting receivers advance their clock instead of
	// parking.
	lat := net.Latency
	if lf := w.cfg.LinkFaults; lf != nil {
		lat = lf.StretchLatency(lat, sendEnd)
	}
	arrive := sendEnd + lat
	msg.ser = ser
	if w.reliable() {
		// Lossy fabric: the reliable protocol takes over delivery —
		// sequence number, attempt-0 verdict, retransmission timer. The
		// request's completion instant (the NIC slot) is already fixed
		// above, so buffered-send semantics and send-side cost are
		// unchanged. Incompatible with the sharded mode, so this branch
		// never races the Post path below.
		src.relSend(msg, sendEnd, arrive)
		return req
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
	return req
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
// Self-sends are the one exception to that monotonicity: they are ready
// immediately and may deliver while an earlier-arrived network message is
// still on the NIC. A receive already posted when the network message
// arrived keeps its early binding even though strict delivery order would
// have handed it the self-send. That is a valid MPI outcome — matching
// order across different sources is unspecified, and non-overtaking only
// constrains one (source, tag) pair, which a self-send (src == me) and a
// network message (src != me) never share. Queue-side visibility IS kept
// delivery-faithful: Probe reports only fully-received messages and a
// receive posted over the queue prefers them in the same order
// (firstReadyIn), so probe-then-receive always agrees.
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
		req.status = m.status()
		dst.pool.freePostedRecv(p)
		dst.pool.freeMessage(m)
		if ready > e.Now() {
			req.timed = true
			req.doneAt = ready
			// Nobody can act on the completion before ready; wake waiters
			// then, not now (a waiter woken early would only re-park or
			// burn a yield advancing to ready). A process parked in Wait
			// on this request resumes directly, as does a WaitAny waiter
			// registered on it; waiters that arrive after this instant see
			// the timed request directly.
			if req.waiter != nil {
				e.WakeAt(ready, req.waiter)
			} else if req.anyw != nil {
				req.anyw.WakeAt(ready)
				req.anyw = nil
			}
			return
		}
		req.done = true
		if req.waiter != nil {
			e.WakeAt(e.Now(), req.waiter)
		} else if req.anyw != nil {
			req.anyw.WakeAt(e.Now())
			req.anyw = nil
		}
		return
	}
	// An unmatched arrival completes no request, so nobody needs waking: a
	// blocked WaitAny waiter's requests are all posted receives, which
	// this message just failed to match.
	m.readyAt = ready
	dst.match.addUnexpected(m)
}

// Irecv posts a nonblocking receive from src (or AnySource) with the given
// tag (or AnyTag).
func (c *Comm) Irecv(r *Rank, src, tag int) *Request {
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
	if st, readyAt, ok := rs.match.takeQueued(c.id, src, tag, rs.eng.Now()); ok {
		req.status = st
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
	req := c.Isend(r, dst, tag, bytes, data)
	c.Wait(r, req)
}

// Recv is a blocking receive.
func (c *Comm) Recv(r *Rank, src, tag int) Status {
	req := c.Irecv(r, src, tag)
	return c.Wait(r, req)
}

// Wait blocks until req completes and returns its status. Completed
// receives additionally charge the configured receive overhead to the
// calling process.
func (c *Comm) Wait(r *Rank, req *Request) Status {
	return c.waitOn(r, r.proc, req)
}

func (c *Comm) waitOn(r *Rank, proc *simProc, req *Request) Status {
	req.checkLive()
	e := r.rs.eng
	// floor is the earliest instant this process can observe anything:
	// entry time plus the CPU debt it owes. The debt rides through the
	// park (its busy window overlaps the blocked period) and is folded
	// into the single settling advance below — one engine yield for the
	// whole wait, however the request completes.
	floor := e.Now() + proc.Debt()
	for !req.done && !req.timed {
		// The park registers this process on the request, so delivery
		// wakes exactly this process at exactly the right instant.
		req.waiter = proc
		proc.ParkKeepingDebt("mpi wait")
		req.waiter = nil
	}
	target := e.Now()
	if floor > target {
		target = floor
	}
	if err := req.status.Err; err != nil {
		// Completed by peer failure: settle the clock (debt must not leak
		// into the recovery path) and surface the error. The request is
		// abandoned, not recycled — the panic unwinds past the caller.
		proc.SettleTo(target)
		panic(err)
	}
	if req.timed && req.doneAt > target {
		target = req.doneAt
	}
	req.done = true
	if req.isRecv && !req.ovCharged {
		req.ovCharged = true
		target += r.w.cfg.Net.RecvOverhead
	}
	proc.SettleTo(target)
	if proc == r.proc {
		// Helper processes (nonblocking collectives) wait unobserved: the
		// timeline shows what the rank's main process is blocked on.
		r.traceWait("wait", floor)
	}
	st := req.status
	r.rs.pool.freeRequest(req)
	return st
}

// WaitAll waits for every request in order. Requests that are already
// complete when reached are settled without an engine yield, and their
// receive overheads accumulate as CPU debt (the way AddDebt coalesces
// send overhead) — one clock advance at the end instead of one per
// request. The virtual-time outcome is identical to waiting on each
// request in sequence.
//
// The returned slice is scratch storage owned by the rank and is reused
// by that rank's next WaitAll call; callers that need the statuses longer
// must copy them out.
func (c *Comm) WaitAll(r *Rank, reqs ...*Request) []Status {
	out := r.rs.statusScratch(len(reqs))
	proc := r.proc
	e := r.rs.eng
	ov := c.w.cfg.Net.RecvOverhead
	for i, q := range reqs {
		q.checkLive()
		// Fast path: complete as of now plus pending debt. (Timed send
		// completions compare against the post-flush clock, matching what
		// Wait's FlushDebt-then-AdvanceTo would observe.) Requests completed
		// by peer failure take the Wait path, which surfaces the error.
		if q.status.Err == nil && (q.done || (q.timed && q.doneAt <= e.Now()+proc.Debt())) {
			q.done = true
			if q.isRecv && !q.ovCharged {
				q.ovCharged = true
				proc.AddDebt(ov)
			}
			out[i] = q.status
			r.rs.pool.freeRequest(q)
			continue
		}
		out[i] = c.Wait(r, q)
	}
	proc.FlushDebt()
	return out
}

// WaitAny blocks until at least one request has completed and returns the
// lowest completed index with its status. The paper's imbalance-absorption
// mechanism ("process the first available data") is built on this.
//
// A blocked WaitAny registers one waker on every pending request, so the
// first completion resumes exactly this process at exactly the completion
// instant — no wake per unrelated message. Because
// a wake implies a completed request, the process parks at most once per
// call and the post-wake scan doubles as deregistration.
func (c *Comm) WaitAny(r *Rank, reqs []*Request) (int, Status) {
	if len(reqs) == 0 {
		panic("mpi: WaitAny with no requests")
	}
	r.proc.FlushDebt()
	start := r.rs.eng.Now()
	var aw *sim.Waker
	for {
		now := r.rs.eng.Now()
		// Earliest pending timed completion (sends, and receives whose
		// message is already bound), if any.
		var minTimed sim.Time = -1
		won := -1
		for i, q := range reqs {
			if q == nil {
				continue
			}
			q.checkLive()
			if aw != nil && q.anyw == aw {
				q.anyw = nil
			}
			if won < 0 && q.completedBy(now) {
				won = i
				// Keep scanning: later requests may still hold the waker.
				continue
			}
			if q.timed && (minTimed < 0 || q.doneAt < minTimed) {
				minTimed = q.doneAt
			}
		}
		if won >= 0 {
			if aw != nil {
				aw.Disarm()
				r.rs.pool.freeWaker(aw)
			}
			q := reqs[won]
			if err := q.status.Err; err != nil {
				// Completed by peer failure (debt was flushed at entry, so
				// the clock is already settled). The request is abandoned.
				panic(err)
			}
			q.done = true
			if q.isRecv && !q.ovCharged {
				q.ovCharged = true
				r.proc.Advance(r.w.cfg.Net.RecvOverhead)
			}
			r.traceWait("waitany", start)
			st := q.status
			r.rs.pool.freeRequest(q)
			return won, st
		}
		if minTimed >= 0 {
			// A send will complete at a known instant; a receive may
			// complete during the advance and wins the next scan.
			r.proc.AdvanceTo(minTimed)
			continue
		}
		if aw == nil {
			aw = r.rs.pool.newWaker()
			aw.Arm(r.rs.eng, r.proc)
		}
		for _, q := range reqs {
			if q != nil && !q.done && !q.timed {
				q.anyw = aw
			}
		}
		r.proc.Park("mpi waitany")
	}
}

// Test reports whether req has completed, consuming receive overhead on
// the first successful test of a receive. The overhead is charged exactly
// once per request (ovCharged), so Test-then-Wait sequences neither
// double- nor under-charge.
func (c *Comm) Test(r *Rank, req *Request) (bool, Status) {
	req.checkLive()
	if !req.completedBy(r.rs.eng.Now()) {
		return false, Status{}
	}
	if err := req.status.Err; err != nil {
		panic(err)
	}
	req.done = true
	if req.isRecv && !req.ovCharged {
		req.ovCharged = true
		r.proc.Advance(r.w.cfg.Net.RecvOverhead)
	}
	return true, req.status
}

// Probe reports whether a matching message has already arrived, without
// receiving it. A message still being serialized by the receiver NIC is
// not yet visible.
func (c *Comm) Probe(r *Rank, src, tag int) (bool, Status) {
	if m := r.rs.match.findQueuedReady(c.id, src, tag, r.rs.eng.Now()); m != nil {
		return true, m.status()
	}
	return false, Status{}
}
