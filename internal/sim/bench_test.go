package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDispatch measures Advance on a sole blocking body: the host's
// cost when a call completes inline (one Await, no coroutine switch).
func BenchmarkDispatch(b *testing.B) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			advance(p, 10)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// queueTick is a self-rescheduling action: the event queue's cost per
// event with no fiber and no closure in the way. All ticks of one run
// share left.
type queueTick struct {
	e      *Engine
	period Time
	left   *int
}

func (k *queueTick) Fire() {
	if *k.left > 0 {
		*k.left--
		k.e.AtAction(k.e.Now()+k.period, k)
	}
}

// BenchmarkEventQueue measures one pop plus one push with n events
// pending, each rescheduling itself with a period of its own (a seeded
// permutation, so instants rarely collide): 2 is the fiber ping-pong's
// queue, 200 what the figure sweeps hold, 262144 far beyond cache. burst
// gives all 256 tickers one period and one phase, so every instant is a
// same-instant burst the queue hands out in scheduling order.
func BenchmarkEventQueue(b *testing.B) {
	run := func(b *testing.B, pending int, period func(i int) Time, start func(i int) Time) {
		e := NewEngine(1)
		left := b.N
		ticks := make([]queueTick, pending)
		for i := range ticks {
			ticks[i] = queueTick{e: e, period: period(i), left: &left}
			e.AtAction(start(i), &ticks[i])
		}
		b.ResetTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		st := e.QueueStats()
		b.ReportMetric(float64(st.Moves)/float64(st.Pushes), "moves/event")
	}
	for _, n := range []int{2, 200, 262144} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			perm := rand.New(rand.NewSource(1)).Perm(n)
			run(b, n, func(i int) Time { return Time(1009 + 2*perm[i]) }, func(i int) Time { return Time(i + 1) })
		})
	}
	b.Run("burst", func(b *testing.B) {
		run(b, 256, func(int) Time { return 1000 }, func(int) Time { return 1 })
	})
}

// BenchmarkDebtFastPath measures AddDebt (the no-yield overhead path used
// by message sends).
func BenchmarkDebtFastPath(b *testing.B) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.AddDebt(1)
			if i%1024 == 1023 {
				flushDebt(p)
			}
		}
		flushDebt(p)
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// reportEventRate attaches the engine's event throughput to the
// benchmark, the simulator's headline capacity number.
func reportEventRate(b *testing.B, e *Engine) {
	b.Helper()
	b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkAdvanceInline measures the inline-advance fast path through
// the host: a sole blocking body moving the clock with zero goroutine
// switches and zero heap traffic.
func BenchmarkAdvanceInline(b *testing.B) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			advance(p, 10)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkHandoffPingPong measures the worst case of a blocking call: two
// blocking bodies advancing in strict alternation, so every event resumes
// a hosted fiber whose last continuation switches into its parked body
// coroutine, which runs to its next Advance, suspends and yields back —
// two coroutine switches per event (~700 ns on a 2-CPU Intel Xeon, against
// ~1,750 ns for the unbuffered channel pair they replaced and ~90 ns for
// BenchmarkFiberPingPong). Nothing measured runs blocking bodies.
func BenchmarkHandoffPingPong(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		i := i
		e.spawn("p", func(p *Proc) {
			advance(p, Time(i+1)) // offset so the two strictly interleave
			for n := 0; n < b.N; n++ {
				advance(p, 2)
			}
		})
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkSameTimeCallbacks measures bursts of callbacks scheduled at the
// current instant: each joins the queue's bucket 0, a FIFO, and pops
// without being moved.
func BenchmarkSameTimeCallbacks(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		for burst := 0; burst < 63 && n < b.N; burst++ {
			n++
			e.At(e.Now(), func() {})
		}
		if n < b.N {
			n++
			e.At(e.Now()+1, tick)
		}
	}
	e.At(e.Now()+1, tick)
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkFiberPingPong measures fiber-to-fiber cross-process dispatch:
// two fibers advancing in strict alternation, so every event is a resume
// of the *other* fiber — the pattern that costs two coroutine switches
// between blocking bodies (BenchmarkHandoffPingPong) and a plain method
// call here.
func BenchmarkFiberPingPong(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		i := i
		e.SpawnFiber("f", func(f *Fiber) StepFunc {
			n := 0
			var step StepFunc
			step = func(f *Fiber) StepFunc {
				if n >= b.N {
					return nil
				}
				n++
				return f.Advance(2, step)
			}
			return f.Advance(Time(i+1), step) // offset so the two strictly interleave
		})
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkFiberAdvanceInline measures a sole runnable fiber on the
// inline-advance fast path, the fiber counterpart of
// BenchmarkAdvanceInline.
func BenchmarkFiberAdvanceInline(b *testing.B) {
	e := NewEngine(1)
	e.SpawnFiber("f", func(f *Fiber) StepFunc {
		n := 0
		var step StepFunc
		step = func(f *Fiber) StepFunc {
			if n >= b.N {
				return nil
			}
			n++
			return f.Advance(10, step)
		}
		return step
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkManyFibersStaggered measures heap-dominated dispatch: many
// fibers advancing with co-prime strides, so resumes interleave through
// the event queue like a large lockstep simulation, with zero goroutine
// switches.
func BenchmarkManyFibersStaggered(b *testing.B) {
	const fibers = 64
	e := NewEngine(1)
	per := b.N/fibers + 1
	for i := 0; i < fibers; i++ {
		i := i
		e.SpawnFiber("f", func(f *Fiber) StepFunc {
			n := 0
			var step StepFunc
			step = func(f *Fiber) StepFunc {
				if n >= per {
					return nil
				}
				n++
				return f.Advance(Time(97+i%7), step)
			}
			return step
		})
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// BenchmarkBroadcastAllocs guards the collective wake hot path: waking a
// full queue of parked fibers must not allocate beyond the wake events
// themselves (whose queue storage is reused across pops).
func BenchmarkBroadcastAllocs(b *testing.B) {
	const waiters = 32
	e := NewEngine(1)
	var q WaitQueue
	var park func(f *Fiber) StepFunc
	park = func(f *Fiber) StepFunc {
		return q.WaitFiber(f, "bench", park)
	}
	for i := 0; i < waiters; i++ {
		e.SpawnFiber("w", park)
	}
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			q.Broadcast(e)
			e.At(e.Now()+1, tick)
		}
	}
	e.At(e.Now()+1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	// The waiters never finish: run to the last tick, not to a deadlock.
	e.limit = Time(b.N) + 2
	e.drive()
}

// BenchmarkManyProcsStaggered is BenchmarkManyFibersStaggered with
// blocking bodies: nearly every resume pays the host's two coroutine
// switches on top of the heap traffic.
func BenchmarkManyProcsStaggered(b *testing.B) {
	const procs = 64
	e := NewEngine(1)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		e.spawn("p", func(p *Proc) {
			for n := 0; n < per; n++ {
				advance(p, Time(97+i%7))
			}
		})
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventRate(b, e)
}

// windowTick fires once per lookahead on its shard, through depth extra
// call frames of about 300 bytes each: the runtime's events fire through a
// chain this deep (drive, Fire, a step, the mpi continuation under it),
// which a fresh goroutine stack has to grow into and a parked worker's
// stack already holds. With a peer it also posts one delivery per tick to
// the peer's shard, one lookahead out.
type windowTick struct {
	e, peer *Engine
	la      Time
	left    int
	depth   int
	seq     uint64
	sink    byte // keeps the frames' contents live; per tick, as shards fire concurrently
}

// windowNop is what a windowTick posts: nothing to fire, nothing to allocate.
var windowNop mark

func (t *windowTick) Fire() { t.sink += t.fire(t.depth) }

//go:noinline
func (t *windowTick) fire(depth int) byte {
	var frame [256]byte
	frame[depth] = byte(t.left)
	if depth > 0 {
		return frame[depth] + t.fire(depth-1)
	}
	if t.left > 0 {
		t.left--
		at := t.e.Now() + t.la
		if t.peer != nil {
			t.seq++
			t.e.Post(t.peer, at, uint64(t.e.shard+1)<<40|t.seq, &windowNop)
		}
		t.e.AtAction(at, t)
	}
	return frame[0]
}

// benchShardWindows runs a 2-shard group with one ticker of b.N ticks per
// busy shard, shard s starting at one lookahead plus s times offset, and
// reports how many windows the run took per tick of a shard.
func benchShardWindows(b *testing.B, busyShards, depth int, offset Time, post bool) {
	const la = Time(100)
	g := NewShardGroup(1, 2, la)
	for s := 0; s < busyShards; s++ {
		t := &windowTick{e: g.Shard(s), la: la, left: b.N, depth: depth}
		if post {
			t.peer = g.Shard(1 - s)
		}
		t.e.AtAction(la+Time(s)*offset, t)
	}
	b.ResetTimer()
	if _, err := g.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(g.Stats().Windows)/float64(b.N), "windows/tick")
}

// BenchmarkShardWindowBothBusy measures one window of the barrier
// protocol with both shards busy: the hand-off to shard 1's worker and
// back. The two tick at equal instants, and a tie gives neither a longer
// horizon, so every tick is a window. Run with -cpu 1,2: at 1 the hand-off
// is two goroutine switches on one thread (the benchmark's pinned
// configuration), at 2 it crosses threads. deep fires through a 12-frame
// call chain, which is what a window of the real runtime does.
func BenchmarkShardWindowBothBusy(b *testing.B) {
	b.Run("shallow", func(b *testing.B) { benchShardWindows(b, 2, 0, 0, false) })
	b.Run("deep", func(b *testing.B) { benchShardWindows(b, 2, 12, 0, false) })
}

// BenchmarkShardWindowAlternating measures two shards ticking half a
// lookahead apart, per tick of one shard. quiet is the case a horizon per
// shard helps: the shard with the earlier tick runs until one lookahead
// past the other's, so a window carries three ticks (2/3 windows/tick)
// where the one global window carried two. In post every tick also posts to
// the other shard at exactly one lookahead, which pulls the poster's limit
// in to where the global window ended: a window per tick again, and the
// price of the pull-in itself. Run with -cpu 1,2.
func BenchmarkShardWindowAlternating(b *testing.B) {
	b.Run("quiet", func(b *testing.B) { benchShardWindows(b, 2, 0, 50, false) })
	b.Run("post", func(b *testing.B) { benchShardWindows(b, 2, 0, 50, true) })
}

// BenchmarkShardWindowUnreachable is the witness that a shard nobody can
// reach costs what a plain engine costs: with the other shard idle the
// ticker's whole run is one window on Run's caller (0 windows/tick), so
// this measures an event, not a window. Compare with
// BenchmarkEventQueue/n=2; run with -cpu 1,2, which should agree.
func BenchmarkShardWindowUnreachable(b *testing.B) {
	benchShardWindows(b, 1, 0, 0, false)
}
