package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The horizon differential runs one generated program of actors that tick
// locally and send each other deliveries one lookahead (or a little more)
// out, under every shard count and several placements, and requires what
// the parallel mode promises: each actor sees the same firings in the same
// order, and Run reports the same final instant, wherever the windows fell.
// A shard that ran past an instant at which something could still reach it
// fails loudly — the merge refuses an event at or before the shard's clock
// — so a horizon that is too long shows as a panic, reported with the
// placement that provoked it.

// horizonFiring is one event as the actor it fired on saw it.
type horizonFiring struct {
	t   Time
	pri uint64 // zero for the actor's own events
	id  uint32 // op index << 8 | step within the op
}

type horizonActor struct {
	id      int
	eng     *Engine
	w       *horizonWorld
	sendSeq uint64
	log     []horizonFiring
}

type horizonWorld struct {
	la Time
	// end is the last instant anything is scheduled at: one lookahead short
	// of MaxTime, where a window end would overflow. Programs that start
	// near it are clipped there, the same way under every placement.
	end    Time
	actors []*horizonActor
}

// at reports now+d and whether that instant is still inside virtual time.
func (w *horizonWorld) at(now, d Time) (Time, bool) {
	t := now + d
	return t, t >= now && t <= w.end
}

// horizonOp is one decoded operation: what an actor starts at start.
type horizonOp struct {
	index  int
	kind   byte // 0 ticker, 1 ticker posting every tick, 2 chain, 3 burst
	actor  int
	start  Time
	period Time // between ticks; think time before a delivery is forwarded
	count  int  // ticks, or deliveries of a burst
	hops   int  // forwards left in a chain or a burst's deliveries
	stride int  // the next actor is stride further on; n is the actor itself
	slack  Time // latency beyond the lookahead
}

func (a *horizonActor) record(pri uint64, op *horizonOp, step int) {
	a.log = append(a.log, horizonFiring{t: a.eng.Now(), pri: pri, id: uint32(op.index)<<8 | uint32(step&0xff)})
}

// send posts a delivery of op to the actor steps strides on from a, with
// the sender-program-order priority the runtime uses — between actors of
// one shard too, since placement must not decide which rule orders them.
func (a *horizonActor) send(op *horizonOp, steps int, extra Time, hops int) {
	t, ok := a.w.at(a.eng.Now(), a.w.la+extra)
	if !ok {
		return
	}
	dst := a.w.actors[(a.id+steps*op.stride)%len(a.w.actors)]
	m := &horizonMsg{dst: dst, op: op, hops: hops, pri: uint64(a.id+1)<<40 | a.sendSeq}
	a.sendSeq++
	a.eng.Post(dst.eng, t, m.pri, m)
}

// horizonTick is a self-rescheduling local event, with a post per tick for
// kind 1.
type horizonTick struct {
	a    *horizonActor
	op   *horizonOp
	left int
}

func (k *horizonTick) Fire() {
	k.a.record(0, k.op, k.left)
	if k.op.kind == 1 {
		k.a.send(k.op, 1, k.op.slack, 0)
	}
	if k.left == 0 {
		return
	}
	k.left--
	if t, ok := k.a.w.at(k.a.eng.Now(), k.op.period); ok {
		k.a.eng.AtAction(t, k)
	}
}

// horizonMsg is a cross-actor delivery. With hops left the receiver
// forwards it, at once — the answer at exactly one lookahead — or after
// thinking for op.period.
type horizonMsg struct {
	dst  *horizonActor
	op   *horizonOp
	hops int
	pri  uint64
}

func (m *horizonMsg) Fire() {
	a := m.dst
	a.record(m.pri, m.op, m.hops)
	if m.hops == 0 {
		return
	}
	if m.op.kind == 2 && m.op.period > 0 {
		if t, ok := a.w.at(a.eng.Now(), m.op.period); ok {
			a.eng.At(t, func() {
				a.record(0, m.op, 0x80|m.hops)
				a.send(m.op, 1, m.op.slack, m.hops-1)
			})
		}
		return
	}
	a.send(m.op, 1, m.op.slack, m.hops-1)
}

// horizonBurst posts count deliveries in one event, to successive actors
// and slack apart.
type horizonBurst struct {
	a  *horizonActor
	op *horizonOp
}

func (b *horizonBurst) Fire() {
	b.a.record(0, b.op, 0)
	for i := 0; i < b.op.count; i++ {
		b.a.send(b.op, 1+i, Time(i)*b.op.slack, b.op.hops)
	}
}

// horizonProgram is a decoded program: a header of four bytes (actors and
// where in virtual time the program sits; the lookahead; two bytes of
// placement) and six bytes per operation.
type horizonProgram struct {
	actors int
	la     Time
	place  uint16
	ops    []horizonOp
}

func decodeHorizon(prog []byte) horizonProgram {
	var hdr [4]byte
	copy(hdr[:], prog)
	p := horizonProgram{
		actors: 2 + int(hdr[0]&7)%5,
		la:     []Time{1, 3, 100, 4096}[hdr[1]&3],
		place:  uint16(hdr[2]) | uint16(hdr[3])<<8,
	}
	base := Time(0)
	if hdr[0]&8 != 0 {
		// Close enough to the end of time that chains and tickers run into it.
		base = MaxTime - p.la*Time(4+hdr[0]>>4*8)
	}
	la := p.la
	for prog = prog[min(len(hdr), len(prog)):]; len(prog) >= 6 && len(p.ops) < 64; prog = prog[6:] {
		b := prog[:6]
		unit := []Time{0, 1, la/2 + 1, la}[b[1]>>6]
		p.ops = append(p.ops, horizonOp{
			index:  len(p.ops),
			kind:   b[0] & 3,
			actor:  int(b[0]>>2) % p.actors,
			start:  base + Time(b[1]&0x3f)*unit,
			period: []Time{0, 1, la / 2, la - 1, la, la + 1, 2 * la, 3*la + 1}[b[2]&7],
			count:  int(b[3]) % 24,
			hops:   int(b[5]) % 12,
			stride: 1 + int(b[4]&0xf)%p.actors,
			slack:  []Time{0, 0, 0, 1, la / 2, la}[int(b[4]>>4)%6],
		})
	}
	return p
}

type horizonResult struct {
	logs   [][]horizonFiring
	now    Time
	events uint64
	stats  ShardStats
}

// runHorizon runs p on a group of shards engines, actor i on shard
// place(i), or on a plain Engine when shards is 0. A panic out of the run
// is returned as an error.
func runHorizon(p horizonProgram, shards int, place func(actor int) int) (res horizonResult, err error) {
	w := &horizonWorld{la: p.la, end: MaxTime - p.la}
	var engines []*Engine
	var run func() (Time, error)
	if shards == 0 {
		e := NewEngine(1)
		engines, run = []*Engine{e}, e.Run
		place = func(int) int { return 0 }
	} else {
		g := NewShardGroup(1, shards, p.la)
		for s := 0; s < shards; s++ {
			engines = append(engines, g.Shard(s))
		}
		run = g.Run
		defer func() { res.stats = g.Stats() }()
	}
	for i := 0; i < p.actors; i++ {
		w.actors = append(w.actors, &horizonActor{id: i, eng: engines[place(i)], w: w})
	}
	for i := range p.ops {
		op := &p.ops[i]
		if op.start < 0 || op.start > w.end {
			continue // past the end of time
		}
		a := w.actors[op.actor]
		switch op.kind {
		case 0, 1:
			a.eng.AtAction(op.start, &horizonTick{a: a, op: op, left: op.count})
		case 2:
			a.eng.At(op.start, func() {
				a.record(0, op, 0xff)
				a.send(op, 1, op.slack, op.hops)
			})
		case 3:
			a.eng.AtAction(op.start, &horizonBurst{a: a, op: op})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if res.now, err = run(); err != nil {
		return res, err
	}
	for _, a := range w.actors {
		res.logs = append(res.logs, a.log)
	}
	for _, e := range engines {
		res.events += e.Events()
	}
	return res, nil
}

// checkHorizon runs p on one shard, which is one window nobody can cut
// short, and requires the same firings, final instant and event count from
// a plain Engine and from 2, 3 and 4 shards under a strided placement, a
// blocked one and the one the program's header draws.
func checkHorizon(tb testing.TB, prog []byte) {
	tb.Helper()
	p := decodeHorizon(prog)
	ref, err := runHorizon(p, 1, func(int) int { return 0 })
	if err != nil {
		tb.Fatalf("1 shard: %v", err)
	}
	if ref.events > 0 && ref.stats.Windows != 1 {
		tb.Fatalf("1 shard ran %d windows, want 1", ref.stats.Windows)
	}
	same := func(name string, got horizonResult, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if got.now != ref.now || got.events != ref.events {
			tb.Fatalf("%s: ended at %v after %d events, one shard at %v after %d", name, got.now, got.events, ref.now, ref.events)
		}
		if !reflect.DeepEqual(got.logs, ref.logs) {
			tb.Fatalf("%s: firings diverge from one shard\ngot  %v\nwant %v", name, got.logs, ref.logs)
		}
	}
	plain, err := runHorizon(p, 0, nil)
	same("plain engine", plain, err)
	for shards := 2; shards <= 4; shards++ {
		for _, pl := range []struct {
			name  string
			place func(int) int
		}{
			{"strided", func(i int) int { return i % shards }},
			{"blocked", func(i int) int { return i * shards / p.actors }},
			{"drawn", func(i int) int { return int(p.place>>(2*i)&3) % shards }},
		} {
			got, err := runHorizon(p, shards, pl.place)
			same(fmt.Sprintf("%d shards, %s", shards, pl.name), got, err)
		}
	}
}

// TestShardHorizonAgainstOneShard runs seeded random programs: local
// tickers with periods around the lookahead, ping chains whose every
// answer leaves at exactly one lookahead (A→B→A, A→B→C→A, an actor to
// itself), bursts of posts from one event, actors that go idle until a
// post wakes them, many operations starting at one instant, and programs
// placed where virtual time runs out.
func TestShardHorizonAgainstOneShard(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4+6*(1+rng.Intn(24)))
		rng.Read(prog)
		if seed%4 == 0 {
			// All at one instant, answers at exactly the lookahead: ties
			// everywhere.
			for i := 4; i < len(prog); i += 6 {
				prog[i+1] &= 0x3f
				prog[i+4] &= 0x0f
			}
		}
		checkHorizon(t, prog)
	}
}

func FuzzShardHorizon(f *testing.F) {
	f.Add([]byte{})
	// Two actors: one ticks at half a lookahead and posts every tick, the
	// other answers nothing — the pull-in alone bounds the ticker.
	f.Add([]byte{0, 2, 0x04, 0, 1, 0, 2, 20, 0, 0})
	// A ping-pong answered at exactly one lookahead beside a ticker on the
	// pinging shard.
	f.Add([]byte{0, 2, 0x04, 0, 2, 0, 0, 0, 0, 11, 0, 1, 2, 23, 0, 0})
	// A→B→C→A, thinking half a lookahead before each answer.
	f.Add([]byte{1, 2, 0x24, 0, 2, 0, 2, 0, 0, 9})
	// A burst of five from one event, then silence until the answers return.
	f.Add([]byte{2, 1, 0x1b, 0, 3, 0, 0, 5, 0x30, 7})
	// The same near the end of virtual time.
	f.Add([]byte{0x1a, 2, 0x1b, 0, 3, 0, 0, 5, 0x30, 7, 1, 0x41, 4, 23, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { checkHorizon(t, prog) })
}

// TestOneShardIsOneWindow: a group of one shard has nobody to wait for, so
// it runs its program in one window, to the instant and the event count a
// plain Engine reaches.
func TestOneShardIsOneWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	prog := make([]byte, 4+6*16)
	rng.Read(prog)
	p := decodeHorizon(prog)
	plain, err := runHorizon(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := runHorizon(p, 1, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if plain.events < 100 {
		t.Fatalf("the program fired %d events: too small to show anything", plain.events)
	}
	if one.stats.Windows != 1 || one.stats.LoneWindows != 1 {
		t.Errorf("one shard: stats %+v, want one lone window", one.stats)
	}
	if one.now != plain.now || one.events != plain.events {
		t.Errorf("one shard ended at %v after %d events, a plain engine at %v after %d", one.now, one.events, plain.now, plain.events)
	}
}

// TestShardGroupRunReturnsLastEvent: Run reports the instant of the last
// event, as Engine.Run does, not the bound of the window it fired in.
func TestShardGroupRunReturnsLastEvent(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		g := NewShardGroup(1, shards, testLat)
		g.Shard(shards-1).At(5, func() {})
		if now, err := g.Run(); err != nil || now != 5 {
			t.Errorf("%d shards: Run = %v, %v, want 5ns", shards, now, err)
		}
	}
}
