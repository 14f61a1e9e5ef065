package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

const (
	// queueBuckets is one bucket per possible bit length of t ^ last: Time
	// is a non-negative int64, so the lengths are 0..63.
	queueBuckets = 64
	// bucketFloor is the capacity every bucket (and late) starts with, carved
	// from one slab when the engine is built. A run of any length therefore
	// meets no bucket for the first time: a bucket allocates only when its
	// own population outgrows what it has held before, and keeps what it
	// grew to across Reset.
	bucketFloor = 8
)

// eventQueue is a monotone radix queue of events popped in exact (t, pri,
// seq) order, seq being the order they were pushed in. It relies on what
// the engine guarantees: no event is pushed at an instant before the latest
// pop (last).
//
// An event at t lives in bucket bits.Len64(uint64(t ^ last)): bucket 0
// holds the events at last itself, bucket b >= 1 the events whose highest
// bit differing from last is bit b-1. Buckets therefore cover disjoint,
// increasing ranges of instants, and the earliest event is always in the
// lowest non-empty bucket. A push is one XOR, one bit length and one
// append. When nothing is left at last, pop makes the minimum instant of
// the lowest non-empty bucket the new last and deals that one bucket out
// again (advance): every event of it lands strictly lower, the minimum
// ones in bucket 0. Buckets above keep their index, because the new last
// agrees with the old one on every bit from the source bucket's up.
//
// Order inside an instant costs no compare, and no stored sequence number
// either: every bucket is always in push order. A direct push is later
// than anything queued, and advance only deals into buckets below the
// lowest non-empty one, which are empty, in the source's order. So bucket
// 0 is a FIFO, popped from head, and that is (t, seq) order for the pri ==
// 0 events every classic run consists of. Events with pri != 0 (cross-rank
// deliveries of the conservative parallel mode) fire after every pri == 0
// event of their instant, so advance sets them aside in late, sorts them
// once by pri (stably, which leaves equal priorities in push order), and
// pop turns to them only when bucket 0 is empty; a pri == 0 event pushed at
// last meanwhile joins bucket 0 and so fires ahead of them, with nothing
// to shift.
type eventQueue struct {
	last Time
	// set has bit b set while bucket b is non-empty; bit 0 also covers late.
	set uint64
	// head and lateHead index the next event to pop in bucket[0] and late.
	head, lateHead int
	// late holds the pri != 0 events at last in (pri, seq) order.
	late   []event
	bucket [queueBuckets][]event
	// min[b] is the earliest instant in bucket b (last for bucket 0) and
	// MaxTime for an empty bucket; min[queueBuckets] stays MaxTime, which is
	// what an empty set selects.
	min [queueBuckets + 1]Time

	n     int // events queued
	stats QueueStats
	// compares counts the compares of late's sorts, for the test that bounds
	// a same-instant burst by work done.
	compares uint64
}

// QueueStats counts what an engine's event queue did since the engine was
// built or last Reset. The counts are functions of the simulated program
// alone — never of timing — so a test can pin them exactly. Every event
// is pushed; an advance that moves the clock inline schedules no event and
// is not counted.
type QueueStats struct {
	// Pushes is the number of events that entered the queue.
	Pushes uint64
	// Redistributions is the number of times the queue ran out of events at
	// its current instant and dealt the lowest bucket out again. A bucket
	// holding a single event is popped in place and not counted.
	Redistributions uint64
	// Moves is the number of events those redistributions moved; Moves over
	// pops is what the queue pays per event beyond its push.
	Moves uint64
	// HighWater is the largest number of events queued at once.
	HighWater int
}

// init carves the buckets' floor capacity out of one slab.
func (q *eventQueue) init() {
	slab := make([]event, (queueBuckets+1)*bucketFloor)
	for b := range q.bucket {
		q.bucket[b] = slab[b*bucketFloor : b*bucketFloor : (b+1)*bucketFloor]
	}
	q.late = slab[queueBuckets*bucketFloor : queueBuckets*bucketFloor]
	for b := 1; b < len(q.min); b++ {
		q.min[b] = MaxTime
	}
}

// reset empties the queue for a new run from instant zero, dropping every
// action still queued and keeping all bucket storage.
func (q *eventQueue) reset() {
	clear(q.bucket[0][q.head:])
	q.bucket[0] = q.bucket[0][:0]
	clear(q.late[q.lateHead:])
	q.late = q.late[:0]
	for s := q.set &^ 1; s != 0; s &= s - 1 {
		b := bits.TrailingZeros64(s)
		clear(q.bucket[b])
		q.bucket[b] = q.bucket[b][:0]
		q.min[b] = MaxTime
	}
	q.last, q.min[0] = 0, 0
	q.set, q.head, q.lateHead = 0, 0, 0
	q.n, q.stats, q.compares = 0, QueueStats{}, 0
}

// empty reports whether no event is queued.
func (q *eventQueue) empty() bool { return q.set == 0 }

// minT reports the instant of the earliest queued event, MaxTime if there
// is none (an event may sit at MaxTime too; empty tells the two apart).
func (q *eventQueue) minT() Time { return q.min[bits.TrailingZeros64(q.set)] }

// noneThrough reports whether no event is queued at or before t.
func (q *eventQueue) noneThrough(t Time) bool { return q.empty() || q.minT() > t }

// push queues ev. Its instant must not precede the latest pop — the
// monotone contract bucket placement rests on — and an event with a
// priority must be strictly later, since late is ordered once, when its
// instant becomes last.
func (q *eventQueue) push(ev event) {
	if ev.t <= q.last && (ev.t < q.last || ev.pri != 0) {
		panic(fmt.Sprintf("sim: event queue given an event at %v (pri %d) after popping at %v", ev.t, ev.pri, q.last))
	}
	b := bits.Len64(uint64(ev.t ^ q.last))
	q.bucket[b] = append(q.bucket[b], ev)
	q.set |= 1 << b
	if ev.t < q.min[b] {
		q.min[b] = ev.t
	}
	q.stats.Pushes++
	q.n++
	if q.n > q.stats.HighWater {
		q.stats.HighWater = q.n
	}
}

// pop removes the earliest event in (t, pri, seq) order and returns its
// instant and action. The queue must not be empty.
func (q *eventQueue) pop() (Time, Action) {
	q.n--
	for {
		if b0 := q.bucket[0]; q.head < len(b0) {
			ev := &b0[q.head]
			act := ev.act
			ev.act = nil
			q.head++
			if q.head == len(b0) {
				q.bucket[0], q.head = b0[:0], 0
				if q.lateHead == len(q.late) {
					q.set &^= 1
				}
			}
			return q.last, act
		}
		if q.lateHead < len(q.late) {
			ev := &q.late[q.lateHead]
			act := ev.act
			ev.act = nil
			q.lateHead++
			if q.lateHead == len(q.late) {
				q.late, q.lateHead = q.late[:0], 0
				q.set &^= 1
			}
			return q.last, act
		}
		b := bits.TrailingZeros64(q.set)
		if src := q.bucket[b]; len(src) == 1 {
			// A lone event is the minimum: it leaves from where it is, and
			// its instant becomes last with nothing to move.
			t, act := src[0].t, src[0].act
			src[0].act = nil
			q.bucket[b] = src[:0]
			q.set &^= 1 << b
			q.min[b] = MaxTime
			q.last, q.min[0] = t, t
			return t, act
		}
		q.advance(b)
	}
}

// advance makes the earliest instant of bucket b, the lowest non-empty one,
// the queue's last and deals the bucket's events out to the buckets below
// it, in order.
func (q *eventQueue) advance(b int) {
	src := q.bucket[b]
	last := q.min[b]
	q.last, q.min[0] = last, last
	q.bucket[b] = src[:0]
	q.set &^= 1 << b
	q.min[b] = MaxTime
	for i := range src {
		ev := &src[i]
		nb := bits.Len64(uint64(ev.t ^ last))
		if nb == 0 && ev.pri != 0 {
			q.late = append(q.late, *ev)
		} else {
			q.bucket[nb] = append(q.bucket[nb], *ev)
			if ev.t < q.min[nb] {
				q.min[nb] = ev.t
			}
		}
		q.set |= 1 << nb
		ev.act = nil
	}
	q.stats.Redistributions++
	q.stats.Moves += uint64(len(src))
	if len(q.late) > 1 {
		compares := uint64(0)
		slices.SortStableFunc(q.late, func(x, y event) int {
			compares++
			return cmp.Compare(x.pri, y.pri)
		})
		q.compares += compares
	}
}
