package main

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// nop is an action that does nothing; being zero-sized it converts to
// sim.Action without allocating.
type nop struct{}

func (nop) Fire() {}

// tick is a self-rescheduling action: the engine's raw event cost with no
// fiber and no closure in the way. All ticks of one run share left.
type tick struct {
	e      *sim.Engine
	period sim.Time
	left   *int
}

func (t *tick) Fire() {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.e.AtAction(t.e.Now()+t.period, t)
}

// engineHeap keeps pending ticks in the heap, each with its own period
// (a seeded permutation, so instants rarely collide and every event is a
// heap pop plus a heap push), and fires about events of them.
func engineHeap(pending, events int) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		e := sim.NewEngine(seed)
		left := scaled(events, scale)
		ticks := make([]tick, pending)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(pending) {
			ticks[i] = tick{e: e, period: sim.Time(1009 + 2*p), left: &left}
			e.AtAction(sim.Time(i+1), &ticks[i])
		}
		t0 := time.Now()
		_, err := e.Run()
		el := time.Since(t0)
		must(err)
		return sample{ops: int(e.Events()), elapsed: el}
	}
}

// burst fills the same-instant FIFO ring: each firing schedules 63 actions
// at Now(), which bypass the heap, then itself one instant later.
type burst struct {
	e    *sim.Engine
	left int
}

func (b *burst) Fire() {
	for i := 0; i < 63 && b.left > 0; i++ {
		b.left--
		b.e.AtAction(b.e.Now(), nop{})
	}
	if b.left > 0 {
		b.left--
		b.e.AtAction(b.e.Now()+1, b)
	}
}

func engineRing(seed int64, scale float64) sample {
	e := sim.NewEngine(seed)
	e.AtAction(1, &burst{e: e, left: scaled(3_000_000, scale)})
	t0 := time.Now()
	_, err := e.Run()
	el := time.Since(t0)
	must(err)
	return sample{ops: int(e.Events()), elapsed: el}
}

// fiberSwitch is two fibers in strict alternation: each wakes the other one
// instant ahead and parks, so every event is a park, a wake and a resume of
// the other fiber.
func fiberSwitch(seed int64, scale float64) sample {
	rounds := scaled(500_000, scale)
	e := sim.NewEngine(seed)
	var fibs [2]*sim.Fiber
	body := func(me int) sim.StepFunc {
		n := 0
		var loop sim.StepFunc
		loop = func(f *sim.Fiber) sim.StepFunc {
			other := fibs[1-me]
			if n >= rounds {
				if me == 0 {
					e.WakeAt(e.Now()+1, other) // release the peer's last park
				}
				return nil
			}
			n++
			e.WakeAt(e.Now()+1, other)
			return f.Park("switch", loop)
		}
		if me == 1 {
			// The second fiber waits for the first wake instead of starting one.
			return func(f *sim.Fiber) sim.StepFunc { return f.Park("switch", loop) }
		}
		return loop
	}
	fibs[0] = e.SpawnFiber("a", body(0))
	fibs[1] = e.SpawnFiber("b", body(1))
	t0 := time.Now()
	_, err := e.Run()
	el := time.Since(t0)
	must(err)
	return sample{ops: 2 * rounds, elapsed: el}
}

// fiberAdvance is one fiber advancing two instants at a time against a tick
// of the same period offset by one, so a pending event always precedes the
// target: no advance can move the clock inline, each one suspends and
// resumes through the heap. One operation is one advance plus the tick
// event that forced it.
func fiberAdvance(seed int64, scale float64) sample {
	rounds := scaled(1_000_000, scale)
	e := sim.NewEngine(seed)
	left := rounds
	e.AtAction(1, &tick{e: e, period: 2, left: &left})
	n := 0
	var step sim.StepFunc
	step = func(f *sim.Fiber) sim.StepFunc {
		if n >= rounds {
			return nil
		}
		n++
		return f.Advance(2, step)
	}
	e.SpawnFiber("f", step)
	t0 := time.Now()
	_, err := e.Run()
	el := time.Since(t0)
	must(err)
	return sample{ops: rounds, elapsed: el}
}

// Bank request stream: 8 stripes at about half load, 4 jobs. Job 0 is the
// hog; every bankPhase requests it alternates between issuing six in ten
// (above its quarter share, so it is paced and leaves gaps) and one in ten
// (its backlog drains and the gap lists shrink). The fair policies' gap
// search then runs on lists of bounded length, so the cost per reservation
// does not depend on how many are timed; a hog that stays above its share
// grows the lists without bound and the cost with them.
const (
	bankStripes = 8
	bankJobs    = 4
	bankGap     = 100 // mean instants between requests
	bankDur     = 400 // mean stripe time per request
	bankPhase   = 200
)

type bankReq struct {
	job      int
	gap, dur sim.Time
}

func bankRequests(seed int64, n int) []bankReq {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]bankReq, n)
	for i := range reqs {
		hogTenths := 6
		if (i/bankPhase)%2 == 1 {
			hogTenths = 1
		}
		job := 0
		if rng.Intn(10) >= hogTenths {
			job = 1 + rng.Intn(bankJobs-1)
		}
		reqs[i] = bankReq{job: job, gap: sim.Time(rng.Intn(2 * bankGap)), dur: sim.Time(1 + rng.Intn(2*bankDur))}
	}
	return reqs
}

var sink sim.Time // keeps the reservation results live

// bankReserve times Bank.Reserve alone over a pre-drawn request stream.
// wc brackets each request with IOBegin/IOEnd while the light jobs hold
// demand open, so the work-conserving share computation runs on every
// grant. faulted puts four outage or derate windows on half the stripes.
func bankReserve(policy sim.BankPolicy, wc, faulted bool) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		reqs := bankRequests(seed, scaled(400_000, scale))
		b := sim.NewBank(bankStripes, bankJobs, policy)
		if faulted {
			horizon := sim.Time(len(reqs)) * bankGap
			for s := 0; s < bankStripes/2; s++ {
				var fs []sim.StripeFault
				for k := 0; k < 4; k++ {
					start := horizon*sim.Time(2*k+1)/10 + sim.Time(s)*horizon/100
					fs = append(fs, sim.StripeFault{Start: start, End: start + horizon/50, Rate: 0.25 * float64(k%2)})
				}
				b.SetStripeFaults(s, fs)
			}
		}
		if wc {
			for j := 1; j < bankJobs; j++ {
				b.IOBegin(j, 0)
			}
		}
		var at, acc sim.Time
		t0 := time.Now()
		for _, r := range reqs {
			at += r.gap
			if wc {
				b.IOBegin(r.job, at)
			}
			_, end := b.Reserve(r.job, at, r.dur)
			if wc {
				b.IOEnd(r.job, at)
			}
			acc += end
		}
		el := time.Since(t0)
		sink = acc
		return sample{ops: len(reqs), elapsed: el}
	}
}

// shardTick fires once per lookahead on its shard and posts posts actions
// to the peer shard for the next window, with the sender-program-order
// priority the runtime uses.
type shardTick struct {
	e, peer *sim.Engine
	la      sim.Time
	left    int
	posts   int
	id, seq uint64
}

func (t *shardTick) Fire() {
	if t.left <= 0 {
		return
	}
	t.left--
	at := t.e.Now() + t.la
	for i := 0; i < t.posts; i++ {
		t.seq++
		t.e.Post(t.peer, at, t.id<<40|t.seq, nop{})
	}
	t.e.AtAction(at, t)
}

// shardWindows runs a 2-shard group in which both shards have exactly one
// action per window, so every window pays the barrier; shard 0 posts posts
// actions across per window. perPost reports the time per post, not per
// window.
func shardWindows(full, posts int, perPost bool) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		const la = sim.Time(100)
		windows := scaled(full, scale)
		g := sim.NewShardGroup(seed, 2, la)
		for s := 0; s < 2; s++ {
			t := &shardTick{e: g.Shard(s), peer: g.Shard(1 - s), la: la, left: windows, id: uint64(s + 1)}
			if s == 0 {
				t.posts = posts
			}
			t.e.AtAction(la, t)
		}
		t0 := time.Now()
		_, err := g.Run()
		el := time.Since(t0)
		must(err)
		ops := windows
		if perPost {
			ops = windows * posts
		}
		return sample{ops: ops, elapsed: el}
	}
}

func simDrivers() []driver {
	return []driver{
		{"sim.engine.heap_ns", "ns", engineHeap(1024, 800_000)},
		{"sim.engine.heap_deep_ns", "ns", engineHeap(262_144, 300_000)},
		{"sim.engine.ring_ns", "ns", engineRing},
		{"sim.fiber.switch_ns", "ns", fiberSwitch},
		{"sim.fiber.advance_ns", "ns", fiberAdvance},
		{"sim.bank.reserve_fcfs_ns", "ns", bankReserve(sim.BankFCFS, false, false)},
		{"sim.bank.reserve_fair_ns", "ns", bankReserve(sim.BankFair, false, false)},
		{"sim.bank.reserve_fairwc_ns", "ns", bankReserve(sim.BankFairWC, true, false)},
		{"sim.bank.reserve_faulted_ns", "ns", bankReserve(sim.BankFCFS, false, true)},
		{"sim.shardgroup.window_empty_ns", "ns", shardWindows(100_000, 0, false)},
		{"sim.shardgroup.window_post_ns", "ns", shardWindows(100_000, 1, false)},
		{"sim.shardgroup.post_ns", "ns", shardWindows(20_000, 64, true)},
	}
}
