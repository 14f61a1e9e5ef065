package sim

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// refBefore is the order the queue must reproduce: (t, pri, seq).
func refBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.act.(*mark).seq < b.act.(*mark).seq
}

// mark is the action of a test event: pop hands back only the instant and
// the action, so the action says which event it was.
type mark struct{ pri, seq uint64 }

func (*mark) Fire() {}

// queueModel drives an eventQueue beside a sorted slice and compares the
// two after every operation.
type queueModel struct {
	tb   testing.TB
	q    eventQueue
	ref  []event // sorted by refBefore
	seq  uint64
	last Time // instant of the latest pop: pushes draw t >= last, as the engine does
	high int
}

func newQueueModel(tb testing.TB) *queueModel {
	m := &queueModel{tb: tb}
	m.q.init()
	return m
}

func (m *queueModel) push(t Time, pri uint64) {
	m.seq++
	ev := event{t: t, pri: pri, act: &mark{pri, m.seq}}
	m.q.push(ev)
	at := sort.Search(len(m.ref), func(i int) bool { return refBefore(&ev, &m.ref[i]) })
	m.ref = append(m.ref, event{})
	copy(m.ref[at+1:], m.ref[at:])
	m.ref[at] = ev
	if len(m.ref) > m.high {
		m.high = len(m.ref)
	}
	m.check()
}

func (m *queueModel) pop() {
	t, act := m.q.pop()
	got, want := act.(*mark), m.ref[0]
	m.ref = m.ref[1:]
	if w := want.act.(*mark); t != want.t || got != w {
		m.tb.Fatalf("pop = (%d, %d, %d), want (%d, %d, %d)",
			t, got.pri, got.seq, want.t, w.pri, w.seq)
	}
	m.last = t
	m.check()
}

// check compares what the engine reads between operations: emptiness, the
// minimum instant and the counters.
func (m *queueModel) check() {
	m.tb.Helper()
	if m.q.empty() != (len(m.ref) == 0) {
		m.tb.Fatalf("empty() = %v with %d events in the reference", m.q.empty(), len(m.ref))
	}
	want := MaxTime
	if len(m.ref) > 0 {
		want = m.ref[0].t
	}
	if got := m.q.minT(); got != want {
		m.tb.Fatalf("minT() = %d, want %d", got, want)
	}
	if st := m.q.stats; st.Pushes != m.seq || st.HighWater != m.high {
		m.tb.Fatalf("stats %+v, want %d pushes and high-water %d", st, m.seq, m.high)
	}
}

// run decodes a program of two-byte operations. The low bits of the first
// byte choose pop (if anything is queued) or push; a push draws its
// instant at or after the latest pop from one of eight distances — the same
// instant, small and large strides, the next power-of-two boundary and its
// neighbours, and the top of the time range — and takes a priority from the
// top bits, except at the latest pop's own instant, where the engine never
// schedules one. Whatever is left is popped at the end.
func (m *queueModel) run(prog []byte) {
	for ; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0], Time(prog[1])
		if op&3 == 0 {
			if len(m.ref) > 0 {
				m.pop()
			}
			continue
		}
		room := MaxTime - m.last
		var d Time
		switch op >> 2 & 7 {
		case 0:
		case 1:
			d = arg
		case 2:
			d = arg << 8
		case 3:
			// One below, at and one above the next power of two after last.
			pow := Time(1) << bits.Len64(uint64(m.last))
			if pow <= 0 {
				pow = MaxTime
			}
			d = pow - m.last - 1 + arg%3
		case 4:
			d = arg << 24
		case 5:
			d = arg << 40
		case 6:
			d = arg << 55
		case 7:
			d = room - arg
		}
		if d < 0 || d > room {
			d = room
		}
		pri := uint64(op >> 5)
		if d == 0 {
			pri = 0
		}
		m.push(m.last+d, pri)
	}
	for len(m.ref) > 0 {
		m.pop()
	}
}

// TestEventQueueAgainstSort runs random programs of pushes at or after the
// latest pop — many duplicate instants, mixed priorities, instants that
// straddle power-of-two boundaries and reach MaxTime — and checks every pop
// and every minT against a sorted reference; then resets the queue and
// runs another program on the same storage.
func TestEventQueueAgainstSort(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*3000)
		rng.Read(prog)
		// Vary how often the queue drains: seeds differ in how many of the
		// operations are pops, and in which distances they favour.
		for i := 0; i < len(prog); i += 2 {
			if rng.Intn(10) < int(seed%6) {
				prog[i] &^= 3
			}
			if seed%3 == 0 && rng.Intn(4) != 0 {
				prog[i] = prog[i]&^(7<<2) | byte(rng.Intn(2))<<2 // mostly the same few instants
			}
		}
		m := newQueueModel(t)
		m.run(prog)

		m.q.reset()
		if !m.q.empty() || m.q.minT() != MaxTime || m.q.stats != (QueueStats{}) {
			t.Fatalf("seed %d: after reset: empty %v, minT %d, stats %+v", seed, m.q.empty(), m.q.minT(), m.q.stats)
		}
		again := &queueModel{tb: t, q: m.q}
		rng.Read(prog)
		again.run(prog)
	}
}

// TestEventQueueResetMidRun resets a queue that still holds events at its
// current instant, with and without a priority, and in higher buckets: none
// may survive into the next run.
func TestEventQueueResetMidRun(t *testing.T) {
	m := newQueueModel(t)
	for i := 0; i < 4; i++ {
		m.push(5, uint64(i%2)*7)
		m.push(5+Time(i)<<20, 0)
	}
	m.pop() // bucket 0 and late now both hold events at 5
	m.q.reset()
	again := &queueModel{tb: t, q: m.q}
	again.push(1, 0)
	again.push(0, 0)
	again.run(nil)
}

// TestEventQueueZeroPriJoinsAheadOfLate pins the one ordering rule inside
// an instant that is not FIFO: with priority events of the current instant
// still queued, an ordinary event scheduled at that instant fires first.
func TestEventQueueZeroPriJoinsAheadOfLate(t *testing.T) {
	m := newQueueModel(t)
	m.push(9, 3)
	m.push(9, 2)
	m.push(9, 0)
	m.push(9, 1)
	m.pop() // (9, 0)
	m.pop() // (9, 1): the queue is now inside late
	m.push(9, 0)
	m.push(12, 0)
	m.push(9, 0)
	m.run(nil) // (9,0) (9,0) (9,2) (9,3) (12,0), checked against the reference
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0})                   // one instant, FIFO
	f.Add([]byte{0x25, 4, 0x45, 4, 0x05, 4, 0x65, 4, 0, 0, 0, 0, 1, 0}) // priorities at one instant, a push between their pops
	f.Add([]byte{0x0d, 0, 0x0d, 1, 0x0d, 2, 0, 0, 0x0d, 0, 0x0d, 1, 0x0d, 2, 0, 0, 0, 0})
	f.Add([]byte{0x1d, 0, 0x1d, 255, 0x19, 1, 0, 0, 0x1d, 0, 0, 0, 0, 0}) // MaxTime and its neighbours
	f.Add([]byte{0x09, 7, 0x11, 7, 0x15, 7, 0x19, 7, 0, 0, 0x05, 1, 0, 0, 0x09, 200, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<13 {
			prog = prog[:1<<13] // the sorted reference inserts in linear time
		}
		newQueueModel(t).run(prog)
	})
}

// TestEventQueueRefusesThePast: the queue enforces the monotone contract
// itself instead of mis-ordering.
func TestEventQueueRefusesThePast(t *testing.T) {
	for _, c := range []struct {
		name string
		ev   event
	}{
		{"before the latest pop", event{t: 9}},
		{"priority at the latest pop", event{t: 10, pri: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var q eventQueue
			q.init()
			q.push(event{t: 10})
			q.push(event{t: 20})
			q.pop()
			defer func() {
				if recover() == nil {
					t.Fatal("push did not panic")
				}
			}()
			q.push(c.ev)
		})
	}
}

// TestEventQueueSameInstantBurst puts 100,000 events at one instant with
// priorities in reverse order and bounds the work of popping them in
// order by counts, not by time: one redistribution that moves each event
// once, and a sort of O(k log k) compares. Ordinary events scheduled at
// the instant while the burst drains join ahead of it and move nothing.
func TestEventQueueSameInstantBurst(t *testing.T) {
	const k = 100_000
	var q eventQueue
	q.init()
	marks := make([]mark, k)
	for i := range marks {
		marks[i].pri = uint64(k - i)
	}
	for i := 0; i < k; i++ {
		q.push(event{t: 1 << 20, pri: uint64(k - i), act: &marks[i]})
	}
	seq := uint64(k)
	for want := uint64(1); want <= k; want++ {
		if _, act := q.pop(); act.(*mark).pri != want {
			t.Fatalf("pop %d has pri %d", want, act.(*mark).pri)
		}
		if want%10 == 0 {
			seq++
			ordinary := &mark{seq: seq}
			q.push(event{t: 1 << 20, act: ordinary})
			if _, act := q.pop(); act != Action(ordinary) {
				t.Fatalf("ordinary event pushed at the burst's instant did not pop next")
			}
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty after the burst")
	}
	st := q.stats
	if st.Redistributions != 1 || st.Moves != k {
		t.Errorf("burst cost %d redistributions moving %d events, want 1 moving %d", st.Redistributions, st.Moves, k)
	}
	if limit := uint64(2 * k * bits.Len(k)); q.compares > limit {
		t.Errorf("burst cost %d compares, want at most 2·k·log2(k) = %d", q.compares, limit)
	}
}

// TestQueueStatsPinned pins the queue's counters for one small fixed
// program, as the event-count pins do for the layers above: 64 tickers with
// distinct periods, 6,400 events.
func TestQueueStatsPinned(t *testing.T) {
	e := NewEngine(1)
	left := 6400 - 64
	for i := 0; i < 64; i++ {
		period := Time(1009 + 2*i)
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				e.At(e.Now()+period, tick)
			}
		}
		e.At(Time(i+1), tick)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 6400 {
		t.Fatalf("fired %d events, want 6400", e.Events())
	}
	want := QueueStats{Pushes: 6400, Redistributions: 3221, Moves: 22940, HighWater: 64}
	if got := e.QueueStats(); got != want {
		t.Errorf("QueueStats = %+v, want %+v", got, want)
	}
	e.Reset(1)
	if got := e.QueueStats(); got != (QueueStats{}) {
		t.Errorf("QueueStats after Reset = %+v, want zero", got)
	}
}
