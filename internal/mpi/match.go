package mpi

import "repro/internal/sim"

// Message-matching index.
//
// The runtime used to match messages against posted receives (and receives
// against queued unexpected messages) with linear scans and O(n) slice
// deletions, which dominated profiles at scale: a consumer that falls
// behind its producers accumulates thousands of unexpected messages, and
// every match memmoved the whole tail. The matchIndex replaces both scans
// with buckets keyed by (communicator, source, tag), held in flat
// open-addressed tables (keyTable):
//
//   - Posted receives are bucketed by their selector verbatim, wildcards
//     included, so a (comm, AnySource, tag) receive lives in its own
//     bucket. An arriving message can only be claimed by one of four
//     selector keys — (src,tag), (Any,tag), (src,Any), (Any,Any) — and the
//     earliest-posted among those four bucket heads wins, which is exactly
//     the posting-order scan the linear version performed.
//   - Unexpected messages are listed in arrival order: in one global
//     arrival list, and in an arrival-ordered list per selector key a
//     receive reads. The earliest live arrival that matches a selector is
//     necessarily the head of that selector's list (any earlier message in
//     the list would match too), so a receive is a pop-front. A concrete
//     (comm, src, tag) list is a bucket: a collective (single-use) tag's
//     bucket is kept from the first arrival, so a fresh collective tag
//     never scans a backlog; a reused tag's bucket is built from the
//     arrival list on the first concrete receive of its key, so
//     traffic read only through wildcards builds none. Wildcard lists
//     (side lists) are built the same way on first use.
//
// Both directions preserve MPI's non-overtaking guarantee per (source,
// tag) and reproduce the linear scans' match order exactly: the same
// simulation produces bit-identical virtual-time trajectories. AnyTag
// selects application tags only: collective traffic lives in its own tag
// range (collTagBase), as MPI keeps collectives in a separate context.
//
// Bucket queues use head indices instead of slice deletions, so
// steady-state matching allocates nothing.
//
// Message lifetime (DESIGN.md): a queued message counts the lists that
// hold it (message.held: the arrival list, its concrete bucket if built,
// any wildcard side lists). A receive that consumes a message trims it off
// the front of every list it heads at once; a list where it sits behind a
// live entry drops it when that entry goes, or when it compacts. Lists only
// ever let go of consumed messages, and the list that lets go of the last
// reference returns the message to the pool, so no list ever meets a
// reused message.
//
// Bucket lifecycle (DESIGN.md): application and stream tags are reused, so
// their buckets stay in the tables once created and the one-entry caches in
// front of the tables keep hitting. Collective tags (retires) are used for
// one collective and never again, so their buckets leave the tables the
// moment they drain and recycle through the index's freelists: the tables
// hold live traffic only, however many collective epochs a run executes,
// and since a deletion leaves no tombstone behind, neither does their cost
// per lookup depend on it.

// matchKey identifies a matching bucket: communicator context plus source
// and tag selectors. Posted receives use their selector values verbatim
// (AnySource/AnyTag included); message keys are always concrete.
type matchKey struct {
	comm, src, tag int
}

func (m *message) key() matchKey { return matchKey{int(m.commID), int(m.src), int(m.tag)} }

// recvFIFO is a posting-ordered queue of pending receives with O(1)
// pop-front via a head index.
type recvFIFO struct {
	items []*postedRecv
	head  int
}

func (q *recvFIFO) empty() bool       { return q.head >= len(q.items) }
func (q *recvFIFO) peek() *postedRecv { return q.items[q.head] }

func (q *recvFIFO) push(p *postedRecv) { q.items = append(q.items, p) }

func (q *recvFIFO) pop() *postedRecv {
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return p
}

// msgFIFO is an arrival-ordered queue of unexpected messages with O(1)
// pop-front. A message can sit in several queues at once (its concrete
// bucket plus any wildcard side-lists), so consumption is recorded on the
// message; the consuming receive trims it off every queue it heads, and a
// queue where it sits behind a live entry skips it when its head gets
// there. Every entry is one reference on its message (message.held);
// the methods that let entries go hand them to pl.dropRef.
type msgFIFO struct {
	items []*message
	head  int
}

func (q *msgFIFO) push(m *message) {
	m.held++
	q.items = append(q.items, m)
}

// first returns the earliest live (unconsumed) message, trimming consumed
// entries off the front, or nil if none remain.
func (q *msgFIFO) first(pl *pools) *message {
	for q.head < len(q.items) && q.items[q.head].consumed {
		pl.dropRef(q.items[q.head])
		q.items[q.head] = nil
		q.head++
	}
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return nil
	}
	return q.items[q.head]
}

// maybeCompact drops consumed entries when they dominate the queue.
// liveBound is an upper bound on the queue's live entries (the rank's
// total live count works); keeping the queue within a factor of it bounds
// memory by the live backlog, not by total traffic.
func (q *msgFIFO) maybeCompact(liveBound int, pl *pools) {
	if n := len(q.items) - q.head; n >= 64 && n > 4*liveBound {
		out := q.items[:0]
		for _, m := range q.items[q.head:] {
			if !m.consumed {
				out = append(out, m)
			} else {
				pl.dropRef(m)
			}
		}
		tail := q.items[len(out):]
		for i := range tail {
			tail[i] = nil
		}
		q.items = out
		q.head = 0
	}
}

// release lets go of every message the queue still holds and empties it.
func (q *msgFIFO) release(pl *pools) {
	for _, m := range q.items[q.head:] {
		pl.dropRef(m)
	}
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}

// matchIndex is one rank's matching state: posted receives and unexpected
// messages, both indexed for O(1) matching on the concrete paths.
type matchIndex struct {
	// pool is the freelist set of the rank's shard: messages the last list
	// lets go of return to it.
	pool *pools

	postSeq uint64
	posted  keyTable[recvFIFO]
	// shapes counts posted receives by selector shape (see shapeOf), so
	// message delivery probes only the selector keys that can exist —
	// usually one — instead of all four.
	shapes [4]int
	// sideShapes records which wildcard side-list shapes have ever been
	// built, gating the extra pushes in addUnexpected.
	sideShapes [4]bool

	queued keyTable[msgFIFO] // concrete (comm, src, tag) buckets
	// appBuckets counts the reused-tag buckets in queued, which are built
	// on first read: while there are none, addUnexpected looks up only
	// collective tags.
	appBuckets int
	// side holds wildcard-selector views of the unexpected queue — keys
	// are (comm, AnySource, tag), (comm, src, AnyTag) or (comm,
	// AnySource, AnyTag) — in arrival order. Each is built on first use
	// from the arrival list and maintained incrementally afterwards, so
	// repeated wildcard receives (the stream library posts AnySource
	// receives continuously) match in O(1) instead of rescanning.
	side     keyTable[msgFIFO]
	arrivals []*message // arrival order, lazily deleted via m.consumed
	arrHead  int
	live     int // unconsumed messages in arrivals

	// One-entry caches in front of the bucket tables: steady-state traffic
	// reuses one selector per rank (a consumer reposting the same
	// receive, a neighbour exchange on one tag). A cached pointer stays
	// valid while its bucket is in the table; retiring a bucket drops it.
	lastPostKey matchKey
	lastPostQ   *recvFIFO
	lastSelKey  matchKey
	lastSelQ    *msgFIFO

	// Retired (drained, single-use) buckets awaiting reuse.
	recvQFree []*recvFIFO
	msgQFree  []*msgFIFO
}

// retires reports whether buckets keyed by tag leave the index when they
// drain. Tags in the collective range are single-use by construction
// (nextCollTag never repeats one between rebuilds); every other tag,
// AnyTag included, is reused and keeps its bucket.
func retires(tag int) bool { return tag >= collTagBase }

// postedBucket returns k's posted-receive bucket, taking a retired one or
// allocating when the table has none.
func (x *matchIndex) postedBucket(k matchKey) *recvFIFO {
	q := x.posted.get(k)
	if q == nil {
		if n := len(x.recvQFree); n > 0 {
			q = x.recvQFree[n-1]
			x.recvQFree = x.recvQFree[:n-1]
		} else {
			q = &recvFIFO{}
		}
		x.posted.put(k, q)
	}
	return q
}

// retirePosted removes k's drained bucket q from the index.
func (x *matchIndex) retirePosted(k matchKey, q *recvFIFO) {
	x.posted.del(k)
	x.recvQFree = append(x.recvQFree, q)
	if x.lastPostQ == q {
		x.lastPostQ = nil
	}
}

// queuedBucket is postedBucket for the unexpected-message buckets.
func (x *matchIndex) queuedBucket(k matchKey) *msgFIFO {
	q := x.queued.get(k)
	if q == nil {
		if n := len(x.msgQFree); n > 0 {
			q = x.msgQFree[n-1]
			x.msgQFree = x.msgQFree[:n-1]
		} else {
			q = &msgFIFO{}
		}
		x.queued.put(k, q)
	}
	return q
}

// retireQueued removes k's drained bucket q from the index.
func (x *matchIndex) retireQueued(k matchKey, q *msgFIFO) {
	x.queued.del(k)
	x.msgQFree = append(x.msgQFree, q)
	if x.lastSelQ == q {
		x.lastSelQ = nil
	}
}

// reset returns the index to its initial state for world reuse or a
// revocation, keeping bucket-table, queue and freelist capacity. Receives
// posted but never matched are dropped for the GC. Every list lets go of
// the messages it still holds — never received, or consumed and not yet
// trimmed — so each returns to the pool once, when its last list does: a
// run leaves none of them behind, and the next run on the world does not
// allocate replacements for them (how many were left used to depend on
// how long that run was). Single-use buckets a run left undrained retire
// here.
func (x *matchIndex) reset() {
	x.postSeq = 0
	for k, q := range x.posted.all() {
		clear(q.items)
		q.items = q.items[:0]
		q.head = 0
		if retires(k.tag) {
			x.retirePosted(k, q)
		}
	}
	for k, q := range x.queued.all() {
		q.release(x.pool)
		if retires(k.tag) {
			x.retireQueued(k, q)
		}
	}
	// Side lists are views rebuilt on demand; drop them wholesale.
	for _, q := range x.side.all() {
		q.release(x.pool)
	}
	x.side.clear()
	x.shapes = [4]int{}
	x.sideShapes = [4]bool{}
	for _, m := range x.arrivals[x.arrHead:] {
		x.pool.dropRef(m)
	}
	for i := range x.arrivals {
		x.arrivals[i] = nil
	}
	x.arrivals = x.arrivals[:0]
	x.arrHead = 0
	x.live = 0
	x.lastPostKey, x.lastPostQ = matchKey{}, nil
	x.lastSelKey, x.lastSelQ = matchKey{}, nil
}

// wildcard reports whether the selector uses AnySource or AnyTag.
func wildcard(src, tag int) bool { return src == AnySource || tag == AnyTag }

// shapeOf maps a selector to its shape index: bit 0 set for AnySource,
// bit 1 for AnyTag.
func shapeOf(src, tag int) int {
	s := 0
	if src == AnySource {
		s |= 1
	}
	if tag == AnyTag {
		s |= 2
	}
	return s
}

// selectorMatches reports whether a (src, tag) selector accepts m within
// commID's context. AnyTag accepts application tags only.
func selectorMatches(commID, src, tag int, m *message) bool {
	k := m.key()
	return commID == k.comm &&
		(src == AnySource || src == k.src) &&
		(tag == k.tag || tag == AnyTag && !retires(k.tag))
}

// post registers a pending receive, stamping it with posting order.
func (x *matchIndex) post(p *postedRecv) {
	x.postSeq++
	p.seq = x.postSeq
	k := matchKey{p.commID, p.src, p.tag}
	q := x.lastPostQ
	if q == nil || k != x.lastPostKey {
		q = x.postedBucket(k)
		x.lastPostKey, x.lastPostQ = k, q
	}
	q.push(p)
	x.shapes[shapeOf(p.src, p.tag)]++
}

// takePosted removes and returns the earliest-posted receive whose
// selector accepts m, or nil. Only four selector keys can accept a
// concrete message (two for a collective tag, which AnyTag does not
// select), so the search is at most four bucket-head peeks.
func (x *matchIndex) takePosted(m *message) *postedRecv {
	if x.posted.len() == 0 {
		return nil
	}
	mk := m.key()
	shapes := len(x.shapes)
	if retires(mk.tag) {
		shapes = 2 // the shapes without the AnyTag bit
	}
	var best *recvFIFO
	var bestKey matchKey
	for shape := range shapes {
		if x.shapes[shape] == 0 {
			continue
		}
		// The one key of this shape that accepts m (shapeOf's bits).
		k := mk
		if shape&1 != 0 {
			k.src = AnySource
		}
		if shape&2 != 0 {
			k.tag = AnyTag
		}
		q := x.lastPostQ
		if q == nil || k != x.lastPostKey {
			q = x.posted.get(k)
		}
		if q != nil && !q.empty() {
			if best == nil || q.peek().seq < best.peek().seq {
				best, bestKey = q, k
			}
		}
	}
	if best == nil {
		return nil
	}
	p := best.pop()
	x.shapes[shapeOf(p.src, p.tag)]--
	if retires(bestKey.tag) && best.empty() {
		x.retirePosted(bestKey, best)
	}
	return p
}

// addUnexpected queues a message that found no posted receive: in the
// arrival list and in every list already built for a selector that
// accepts it.
func (x *matchIndex) addUnexpected(m *message) {
	k := m.key()
	if retires(k.tag) {
		x.enter(x.queuedBucket(k), m)
	} else if x.appBuckets > 0 {
		x.enter(x.queued.get(k), m)
	}
	if x.sideShapes[1] {
		x.enter(x.side.get(matchKey{k.comm, AnySource, k.tag}), m)
	}
	if !retires(k.tag) {
		if x.sideShapes[2] {
			x.enter(x.side.get(matchKey{k.comm, k.src, AnyTag}), m)
		}
		if x.sideShapes[3] {
			x.enter(x.side.get(matchKey{k.comm, AnySource, AnyTag}), m)
		}
	}
	m.held++
	x.arrivals = append(x.arrivals, m)
	x.live++
}

// enter appends m to q, unless q has not been built (nil).
func (x *matchIndex) enter(q *msgFIFO, m *message) {
	if q != nil {
		q.push(m)
		q.maybeCompact(x.live+1, x.pool)
	}
}

// consume marks m matched and trims it off the front of every list it
// heads, so a received message is back in the pool as soon as no list
// keeps a live entry in front of it. A drained collective bucket retires.
func (x *matchIndex) consume(m *message) {
	k := m.key() // m may be recycled by the trims below
	m.consumed = true
	x.live--
	if retires(k.tag) || x.appBuckets > 0 {
		if q := x.listOf(&x.queued, k); q != nil && q.first(x.pool) == nil && retires(k.tag) {
			x.retireQueued(k, q)
		}
	}
	if x.sideShapes[1] {
		x.trimSide(matchKey{k.comm, AnySource, k.tag})
	}
	if !retires(k.tag) {
		if x.sideShapes[2] {
			x.trimSide(matchKey{k.comm, k.src, AnyTag})
		}
		if x.sideShapes[3] {
			x.trimSide(matchKey{k.comm, AnySource, AnyTag})
		}
	}
	x.advanceArrHead()
	// Compact the arrival list when consumed entries behind live ones
	// dominate it, so a long-running rank's memory stays proportional to
	// its live backlog.
	if len(x.arrivals) >= 64 && x.live*4 < len(x.arrivals)-x.arrHead {
		x.compact()
	}
}

// listOf returns tab's list for k, or nil, reading the selector cache
// first: the list a take just read is usually the one to trim.
func (x *matchIndex) listOf(tab *keyTable[msgFIFO], k matchKey) *msgFIFO {
	if x.lastSelQ != nil && k == x.lastSelKey {
		return x.lastSelQ
	}
	return tab.get(k)
}

// trimSide drops consumed entries off the front of k's side list, if built.
func (x *matchIndex) trimSide(k matchKey) {
	if q := x.listOf(&x.side, k); q != nil {
		q.first(x.pool)
	}
}

// fill enters in q, in arrival order, every live message that the
// selector key k accepts: how a list built on first read catches up.
func (x *matchIndex) fill(q *msgFIFO, k matchKey) {
	for _, m := range x.arrivals[x.arrHead:] {
		if !m.consumed && selectorMatches(k.comm, k.src, k.tag, m) {
			q.push(m)
		}
	}
}

// sideList returns (building on first use) the arrival-ordered view of
// the unexpected queue for a wildcard selector key.
func (x *matchIndex) sideList(k matchKey) *msgFIFO {
	if q := x.side.get(k); q != nil {
		return q
	}
	q := &msgFIFO{}
	x.fill(q, k)
	x.side.put(k, q)
	x.sideShapes[shapeOf(k.src, k.tag)] = true
	return q
}

// advanceArrHead skips consumed entries at the front of the arrival list,
// recycling the backing array once drained.
func (x *matchIndex) advanceArrHead() {
	for x.arrHead < len(x.arrivals) && x.arrivals[x.arrHead].consumed {
		x.pool.dropRef(x.arrivals[x.arrHead])
		x.arrivals[x.arrHead] = nil
		x.arrHead++
	}
	if x.arrHead == len(x.arrivals) {
		x.arrivals = x.arrivals[:0]
		x.arrHead = 0
	}
}

// compact rewrites the arrival list to hold only live messages.
func (x *matchIndex) compact() {
	out := x.arrivals[:0]
	for _, m := range x.arrivals[x.arrHead:] {
		if !m.consumed {
			out = append(out, m)
		} else {
			x.pool.dropRef(m)
		}
	}
	tail := x.arrivals[len(out):]
	for i := range tail {
		tail[i] = nil
	}
	x.arrivals = out
	x.arrHead = 0
}

// selectorQueue returns the arrival-ordered queue the (src, tag) selector
// reads from: the concrete bucket, or a wildcard side-list. A reused tag's
// bucket is built here, on its key's first read.
func (x *matchIndex) selectorQueue(commID, src, tag int) *msgFIFO {
	k := matchKey{commID, src, tag}
	if x.lastSelQ != nil && k == x.lastSelKey {
		return x.lastSelQ
	}
	var q *msgFIFO
	switch {
	case wildcard(src, tag):
		q = x.sideList(k)
	case retires(tag):
		q = x.queued.get(k)
	default:
		if q = x.queued.get(k); q == nil {
			q = x.queuedBucket(k)
			x.fill(q, k)
			x.appBuckets++
		}
	}
	if q != nil {
		x.lastSelKey, x.lastSelQ = k, q
	}
	return q
}

// takeQueued removes the earliest-arrived live message the (src, tag)
// selector matches in commID's context, records its status in the
// receiving request req and returns its readiness instant, or ok false.
// The caller completes the receive at that instant, as deliverAt
// completes a receive bound at arrival. The message itself stays with the
// index, which recycles it once no list holds it.
func (x *matchIndex) takeQueued(commID, src, tag int, req *Request) (readyAt sim.Time, ok bool) {
	if x.live == 0 {
		return 0, false
	}
	q := x.selectorQueue(commID, src, tag)
	if q == nil {
		return 0, false
	}
	m := q.first(x.pool)
	if m == nil {
		return 0, false
	}
	req.setStatus(int(m.src), int(m.tag), m.bytes, m.data)
	readyAt = m.slot
	x.consume(m)
	return readyAt, true
}

// pendingPosted appends every pending posted receive to buf and returns
// it, in the table's slot order and each list's posting order. Slot order
// is a function of the keys and operations alone, so the failure path
// (failPosted) wakes the receives' waiters at deterministic (t, seq)
// positions. It is not posting order across lists, which no supported run
// observes: a crash campaign leaves a rank one fiber waiting on receives,
// woken once at the kill instant whatever the order.
func (x *matchIndex) pendingPosted(buf []*postedRecv) []*postedRecv {
	for _, q := range x.posted.all() {
		for _, p := range q.items[q.head:] {
			if p != nil {
				buf = append(buf, p)
			}
		}
	}
	return buf
}
