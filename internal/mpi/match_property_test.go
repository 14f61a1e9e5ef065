package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Property/fuzz coverage for the matching index: random send/recv
// programs — wildcard selectors, mixed tags and communicators, self-sends
// and in-flight network messages — are executed against both the
// matchIndex and a naive linear-scan reference that implements the
// documented semantics directly (earliest-posted receive wins a message;
// a receive takes the earliest-arrived message, ready or in flight).
// Every decision the two matchers make must be identical.
//
// Tags are drawn on both sides of collTagBase, wildcard receives
// included: buckets of collective-range tags retire when they drain
// and come back from the freelists (match.go), which the reference knows
// nothing about, so retirement and the invalidation of the one-entry
// caches are checked against it like everything else. After every
// operation the index must hold no drained single-use bucket, no cache
// entry that has left its map, and no reused-tag bucket for a key that no
// concrete receive has read (those are built on first read, from the
// arrival list, which the reference checks by answering every read).
//
// Messages are drawn from the index's pool and recycle through it, as in
// the runtime, so after every operation the message-lifetime invariant is
// checked too: no pooled message is reachable from any bucket, side-list
// or the arrival list, every queued message counts exactly the lists that
// hold it, no list is headed by a consumed message (a receive trims what
// it consumes off every list it heads), and a pooled message is as clean
// as a fresh one. Two seeded mutants of the recycling rule must be caught
// (TestMatchRecycleMutants).
//
// The program generator respects the runtime's invariants, because the
// index's fast paths assume them: virtual time never goes backwards,
// non-self messages become ready in arrival order (receiver-NIC
// reservations are made in arrival order), and self-sends are ready at
// delivery.

// refMatcher is the linear-scan reference.
type refMatcher struct {
	posted []*postedRecv // posting order
	queued []*message    // arrival order
}

func (rm *refMatcher) post(p *postedRecv) { rm.posted = append(rm.posted, p) }

func (rm *refMatcher) takePosted(m *message) *postedRecv {
	for i, p := range rm.posted {
		if selectorMatches(p.commID, p.src, p.tag, m) {
			rm.posted = append(rm.posted[:i], rm.posted[i+1:]...)
			return p
		}
	}
	return nil
}

func (rm *refMatcher) addUnexpected(m *message) { rm.queued = append(rm.queued, m) }

func (rm *refMatcher) takeQueued(commID, src, tag int) *message {
	for i, m := range rm.queued {
		if selectorMatches(commID, src, tag, m) {
			rm.queued = append(rm.queued[:i], rm.queued[i+1:]...)
			return m
		}
	}
	return nil
}

// recycleMutant selects a seeded defect in the message-recycling rule,
// emulated from outside the index at the point the defective code would
// have acted.
type recycleMutant int

const (
	noMutant recycleMutant = iota
	// freeOnConsume returns a message to the pool the moment a receive
	// consumes it, while lists still hold it for lazy deletion.
	freeOnConsume
	// freeKeepsConsumed recycles at the right moment but leaves the
	// consumed flag set on the pooled message.
	freeKeepsConsumed
)

// matchProgram drives both matchers through one operation stream. next
// yields pseudo-random bytes (from a seeded rand or the fuzz corpus). It
// returns the first disagreement or broken invariant, and whether the
// mutant (if any) ever acted.
func matchProgram(next func() byte, ops int, mutant recycleMutant) (fired bool, err error) {
	idx := matchIndex{pool: &pools{}}
	var ref refMatcher

	var now, lastReady sim.Time
	read := make(map[matchKey]bool) // concrete selectors a receive read
	recvID := make(map[*postedRecv]int)
	nextID := 0

	// The first failure ends the program: fail records it and unwinds to
	// the deferred recover.
	type failure struct{ err error }
	fail := func(format string, args ...interface{}) {
		panic(failure{fmt.Errorf(format, args...)})
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()

	pick := func(n int) int { return int(next()) % n }
	srcSel := func() int {
		if pick(4) == 3 {
			return AnySource
		}
		return pick(3)
	}
	// Two reused application tags and two single-use collective tags.
	tagOf := func() int {
		v := pick(4)
		if v >= 2 {
			return collTagBase + v - 2
		}
		return v
	}
	tagSel := func() int {
		if pick(4) == 3 {
			return AnyTag
		}
		return tagOf()
	}

	// Messages carry their identity in the byte count, which both matchers
	// report back; index messages are pooled, so pointers repeat.
	msgOf := func(m *message) int64 {
		if m == nil {
			return -1
		}
		return m.bytes
	}
	recvOf := func(p *postedRecv) int {
		if p == nil {
			return -1
		}
		return recvID[p]
	}

	// deliver runs one message through the deliverAt flow of both
	// matchers; post posts one receive through the Irecv flow (taking a
	// queued message when one matches). They are shared by the single-op
	// cases and the WaitAny-shaped burst op.
	deliverMsg := func(op, commID, src, tag int) {
		nextID++
		m := idx.pool.newMessage()
		m.commID, m.src, m.tag, m.bytes = int32(commID), int32(src), int32(tag), int64(nextID)
		if pick(4) == 0 {
			m.slot = now // a self-send: ready at delivery
		} else {
			// Receiver-NIC slots are granted in arrival order, so
			// ready instants are monotonic for network messages.
			r := lastReady
			if now > r {
				r = now
			}
			m.slot = r + sim.Time(pick(8))
			lastReady = m.slot
		}
		rc := &message{commID: m.commID, src: m.src, tag: m.tag, bytes: m.bytes, slot: m.slot}
		gp := idx.takePosted(m)
		wp := ref.takePosted(rc)
		if recvOf(gp) != recvOf(wp) {
			fail("op %d: delivery of msg %d matched posted recv %d, reference says %d",
				op, m.bytes, recvOf(gp), recvOf(wp))
		}
		if gp == nil {
			idx.addUnexpected(m)
			ref.addUnexpected(rc)
		} else {
			idx.pool.freeMessage(m)
		}
	}
	deliver := func(op int) { deliverMsg(op, pick(2), pick(3), tagOf()) }
	postRecv := func(op, commID, src, tag int) {
		read[matchKey{commID, src, tag}] = true
		var doomed *message // what the receive is about to consume
		if mutant == freeOnConsume && idx.live > 0 {
			if q := idx.selectorQueue(commID, src, tag); q != nil {
				doomed = q.first(idx.pool)
			}
		}
		var req Request
		gready, ok := idx.takeQueued(commID, src, tag, &req)
		gst := req.status
		wm := ref.takeQueued(commID, src, tag)
		got := int64(-1)
		if ok {
			got = gst.Bytes
		}
		if got != msgOf(wm) {
			fail("op %d: recv (comm=%d src=%d tag=%d now=%v) took msg %d, reference says %d",
				op, commID, src, tag, now, got, msgOf(wm))
		}
		if ok {
			if gready != wm.slot || gst.Source != int(wm.src) || gst.Tag != int(wm.tag) {
				fail("op %d: matched msg %d disagrees on fields", op, got)
			}
			switch mutant {
			case freeOnConsume:
				if doomed.held > 0 {
					idx.pool.freeMessage(doomed)
					fired = true
				}
			case freeKeepsConsumed:
				for _, m := range idx.pool.msgFree {
					if !m.consumed {
						m.consumed = true
						fired = true
					}
				}
			}
			return
		}
		p := &postedRecv{commID: commID, src: src, tag: tag}
		rp := &postedRecv{commID: commID, src: src, tag: tag}
		nextID++
		recvID[p] = nextID
		recvID[rp] = nextID
		idx.post(p)
		ref.post(rp)
	}
	post := func(op int) { postRecv(op, pick(2), srcSel(), tagSel()) }
	for op := 0; op < ops; op++ {
		switch pick(7) {
		case 0: // time passes
			now += sim.Time(pick(16))
		case 1, 2: // a message is delivered (the deliverAt flow)
			deliver(op)
		case 3, 4: // a receive is posted (the Irecv flow)
			post(op)
		case 5: // a WaitAny/Test-then-Wait burst
			// The shape the per-request waiter lists produce: a consumer
			// pre-posts a handful of receives (its WaitAny set), arrivals
			// stream in against them, and Test-then-Wait polls interleave
			// further posts before the backlog readies (now does not
			// advance within the burst, so in-flight messages are taken as
			// timed completions). Exercises many-posted-buckets matching
			// and in-flight takeQueued against the linear reference.
			posts := 2 + pick(3)
			for i := 0; i < posts; i++ {
				post(op)
			}
			arrivals := 1 + pick(4)
			for i := 0; i < arrivals; i++ {
				deliver(op)
				if pick(3) == 0 {
					post(op) // the Test-then-Wait style repost
				}
			}
		case 6: // a ring-allgatherv-shaped epoch on one collective tag
			// Every step posts a receive from the same neighbour on the
			// same single-use tag and one message with that key arrives,
			// in either order: the posted bucket (receive first) or the
			// queued bucket (message first) drains, retires and is
			// rebuilt from the freelist by the next step. Wildcard
			// receives on the tag land between steps, while the caches
			// may still name a bucket that has just retired.
			commID, src, tag := pick(2), pick(3), collTagBase+pick(2)
			for steps := 2 + pick(4); steps > 0; steps-- {
				switch pick(3) {
				case 0:
					deliverMsg(op, commID, src, tag)
					postRecv(op, commID, src, tag)
				case 1:
					deliverMsg(op, commID, src, tag)
					postRecv(op, commID, AnySource, tag)
				default:
					postRecv(op, commID, src, tag)
					deliverMsg(op, commID, src, tag)
				}
				if pick(3) == 0 {
					now += sim.Time(pick(8))
				}
			}
		}
		if err := checkBucketLifecycle(&idx, read); err != nil {
			fail("op %d: %v", op, err)
		}
		if err := checkMessageLifetime(&idx); err != nil {
			fail("op %d: %v", op, err)
		}
	}
	return fired, nil
}

// checkBucketLifecycle asserts the index's structural invariants: a
// single-use bucket in a table holds a live entry, a retired bucket holds
// none, a reused-tag bucket exists only for a key in read, and a one-entry
// cache names the bucket its table holds for that key.
func checkBucketLifecycle(x *matchIndex, read map[matchKey]bool) error {
	for k, q := range x.posted.all() {
		if retires(k.tag) && q.empty() {
			return fmt.Errorf("drained posted bucket %+v was not retired", k)
		}
	}
	apps := 0
	for k, q := range x.queued.all() {
		if retires(k.tag) && !holdsLive(q) {
			return fmt.Errorf("drained queued bucket %+v was not retired", k)
		}
		if !retires(k.tag) {
			apps++
			if !read[k] {
				return fmt.Errorf("bucket %+v was built before any receive read its key", k)
			}
		}
	}
	if apps != x.appBuckets {
		return fmt.Errorf("%d reused-tag buckets, counted %d", apps, x.appBuckets)
	}
	for _, q := range x.recvQFree {
		if !q.empty() {
			return fmt.Errorf("a retired posted bucket still holds receives")
		}
	}
	for _, q := range x.msgQFree {
		if len(q.items) != 0 {
			return fmt.Errorf("a retired queued bucket still holds messages")
		}
	}
	if q := x.lastPostQ; q != nil && x.posted.get(x.lastPostKey) != q {
		return fmt.Errorf("posted cache names a bucket %+v no longer maps to", x.lastPostKey)
	}
	if q, k := x.lastSelQ, x.lastSelKey; q != nil {
		held := x.queued.get(k)
		if wildcard(k.src, k.tag) {
			held = x.side.get(k)
		}
		if held != q {
			return fmt.Errorf("selector cache names a bucket %+v no longer maps to", k)
		}
	}
	return nil
}

// holdsLive reports whether q holds an unconsumed message. Unlike q.first
// it trims nothing, so checking an index does not change it.
func holdsLive(q *msgFIFO) bool {
	for _, m := range q.items[q.head:] {
		if !m.consumed {
			return true
		}
	}
	return false
}

// checkMessageLifetime asserts the recycling invariant: no pooled message
// is reachable from any bucket, side-list or the arrival list; a message
// that is reachable counts exactly the lists holding it; no list is headed
// by a consumed message; and a pooled message is pooled once and looks
// like a fresh one.
func checkMessageLifetime(x *matchIndex) error {
	pooled := make(map[*message]bool, len(x.pool.msgFree))
	for _, m := range x.pool.msgFree {
		if pooled[m] {
			return fmt.Errorf("msg %d is in the pool twice", m.bytes)
		}
		pooled[m] = true
		if m.consumed || m.held != 0 || m.data != nil {
			return fmt.Errorf("pooled msg %d is not clean (consumed %v, held %d)", m.bytes, m.consumed, m.held)
		}
	}
	refs := make(map[*message]int32)
	walk := func(where string, items []*message) error {
		if len(items) > 0 && items[0].consumed {
			return fmt.Errorf("consumed msg %d still heads %s", items[0].bytes, where)
		}
		for _, m := range items {
			if pooled[m] {
				return fmt.Errorf("pooled msg %d is reachable from %s", m.bytes, where)
			}
			refs[m]++
		}
		return nil
	}
	for k, q := range x.queued.all() {
		if err := walk(fmt.Sprintf("bucket %+v", k), q.items[q.head:]); err != nil {
			return err
		}
	}
	for k, q := range x.side.all() {
		if err := walk(fmt.Sprintf("side-list %+v", k), q.items[q.head:]); err != nil {
			return err
		}
	}
	if err := walk("the arrival list", x.arrivals[x.arrHead:]); err != nil {
		return err
	}
	for m, n := range refs {
		if int32(m.held) != n {
			return fmt.Errorf("msg %d is held by %d lists but counts %d", m.bytes, n, m.held)
		}
	}
	return nil
}

// TestMatchIndexAgainstLinearReference runs many seeded random programs.
func TestMatchIndexAgainstLinearReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		if _, err := matchProgram(func() byte { return byte(rng.Intn(256)) }, 400, noMutant); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestMatchRecycleMutants seeds the two ways the recycling rule can be
// got wrong and requires the property run to notice each, in every
// program where the defect had a chance to act.
func TestMatchRecycleMutants(t *testing.T) {
	for _, mc := range []struct {
		name   string
		mutant recycleMutant
	}{
		{"free on consume", freeOnConsume},
		{"free without clearing consumed", freeKeepsConsumed},
	} {
		acted := 0
		for seed := 0; seed < 40; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			fired, err := matchProgram(func() byte { return byte(rng.Intn(256)) }, 400, mc.mutant)
			if fired {
				acted++
				if err == nil {
					t.Errorf("%s: seed %d ran to the end undetected", mc.name, seed)
				}
			} else if err != nil {
				t.Errorf("%s: seed %d failed before the mutant acted: %v", mc.name, seed, err)
			}
		}
		if acted == 0 {
			t.Errorf("%s: the mutant never acted in 40 programs", mc.name)
		}
	}
}

// FuzzMatchIndex lets the fuzzer drive the operation stream directly.
func FuzzMatchIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 3, 3, 1, 1, 1, 4, 4, 2, 2, 3, 3, 0, 0, 1, 3})
	// WaitAny-shaped bursts (op 5 = 5 mod 7): pre-posted receive sets
	// with streams of arrivals and Test-then-Wait reposts, the pattern
	// the per-request waiter lists put through the index. The selector
	// bytes mix wildcards (3 -> AnySource/AnyTag) with concrete keys.
	f.Add([]byte{5, 1, 0, 0, 3, 1, 1, 2, 0, 2, 1, 0, 3, 2, 5, 2, 3, 3, 3, 1, 1, 0, 0, 2})
	f.Add([]byte{5, 2, 1, 3, 0, 0, 3, 1, 3, 0, 5, 0, 0, 1, 1, 2, 2, 0, 1, 0, 0, 3, 3, 5})
	f.Add([]byte{5, 0, 3, 3, 0, 5, 1, 1, 2, 0, 0, 5, 2, 3, 0, 1, 5, 3, 2, 2, 1, 1, 0, 0})
	// Ring-allgatherv-shaped epochs (op 6): one single-use tag drains and
	// refills step after step, with wildcard receives between.
	f.Add([]byte{6, 0, 1, 0, 3, 0, 1, 1, 0, 2, 2, 3, 0, 6, 1, 2, 1, 2, 1, 0, 2, 3, 3, 1})
	f.Add([]byte{1, 0, 1, 2, 6, 1, 1, 1, 1, 2, 0, 1, 1, 3, 0, 4, 0, 3, 2, 6, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		i := 0
		next := func() byte {
			b := program[i%len(program)]
			i++
			return b
		}
		if _, err := matchProgram(next, len(program), noMutant); err != nil {
			t.Fatal(err)
		}
	})
}
