package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// The parallel-mode unit tests drive ShardGroup directly with a small
// message-passing workload: a same-instant fan-in (every rank reports to
// rank 0 at one instant, from different shards) followed by a token ring.
// The fan-in is the sharp part — eight deliveries land on rank 0 at the
// same virtual instant from senders on different shards, so their firing
// order is decided purely by the (t, pri, seq) heap key, never by which
// shard ran first.

const testLat = Time(100)

type testNode struct {
	id      int
	eng     *Engine
	nodes   []*testNode
	sendSeq uint64
	reports int
	trace   []string
}

type testMsg struct {
	dst     *testNode
	payload int
}

func (m *testMsg) Fire() { m.dst.recv(m.payload) }

// send posts a delivery to dst with the canonical parallel-mode priority:
// the sender's id and per-sender send counter, a partition-independent
// key.
func (n *testNode) send(dst *testNode, payload int) {
	pri := (uint64(n.id)+1)<<40 | n.sendSeq
	n.sendSeq++
	n.eng.Post(dst.eng, n.eng.Now()+testLat, pri, &testMsg{dst: dst, payload: payload})
}

func (n *testNode) recv(payload int) {
	n.trace = append(n.trace, fmt.Sprintf("%d@%d", payload, n.eng.Now()))
	if payload < 1000 {
		// A fan-in report. Once all have arrived, rank 0 starts the ring.
		n.reports++
		if n.reports == len(n.nodes) {
			n.send(n.nodes[1%len(n.nodes)], 1000+4*len(n.nodes))
		}
		return
	}
	if ttl := payload - 1000; ttl > 0 {
		n.send(n.nodes[(n.id+1)%len(n.nodes)], 1000+ttl-1)
	}
}

// runParallelWorkload runs the fan-in + ring workload over ranks placed
// on shards by place, returning every rank's receive trace.
func runParallelWorkload(t *testing.T, ranks, shards int, place func(rank int) int) [][]string {
	t.Helper()
	_, traces := runParallelGroup(t, ranks, shards, place)
	return traces
}

// runParallelGroup is runParallelWorkload that also returns the group it
// ran, for its window statistics.
func runParallelGroup(t *testing.T, ranks, shards int, place func(rank int) int) (*ShardGroup, [][]string) {
	t.Helper()
	g := NewShardGroup(1, shards, testLat)
	nodes := make([]*testNode, ranks)
	for r := range nodes {
		nodes[r] = &testNode{id: r, eng: g.Shard(place(r))}
	}
	for _, n := range nodes {
		n.nodes = nodes
		n := n
		n.eng.At(0, func() { n.send(nodes[0], n.id) })
	}
	if _, err := g.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	traces := make([][]string, ranks)
	for r, n := range nodes {
		traces[r] = n.trace
	}
	return g, traces
}

// TestShardGroupDeterminism checks the tentpole invariant at the engine
// level: the same workload produces identical traces for every shard
// count and every placement of ranks onto shards.
func TestShardGroupDeterminism(t *testing.T) {
	const ranks = 8
	ref := runParallelWorkload(t, ranks, 1, func(int) int { return 0 })

	// The same-instant fan-in at rank 0 must fire in sender-pri order.
	for i := 0; i < ranks; i++ {
		want := fmt.Sprintf("%d@%d", i, testLat)
		if ref[0][i] != want {
			t.Fatalf("fan-in delivery %d fired as %s, want %s", i, ref[0][i], want)
		}
	}

	cases := []struct {
		name   string
		shards int
		place  func(rank int) int
	}{
		{"2-blocked", 2, func(r int) int { return r / 4 }},
		{"2-strided", 2, func(r int) int { return r % 2 }},
		{"4-blocked", 4, func(r int) int { return r / 2 }},
		{"4-strided", 4, func(r int) int { return r % 4 }},
		{"8", 8, func(r int) int { return r }},
	}
	for _, tc := range cases {
		got := runParallelWorkload(t, ranks, tc.shards, tc.place)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: traces diverge from single-shard reference\ngot  %v\nwant %v", tc.name, got, ref)
		}
	}
}

// TestShardGroupProcHandoff exercises the goroutine-backed process path
// across concurrently running shards: parked rank procs on every shard
// are woken by cross-shard deliveries, window after window. Run under
// -race in CI, this is the handoff-path race test.
func TestShardGroupProcHandoff(t *testing.T) {
	const ranks, rounds = 8, 16
	run := func(shards int, place func(int) int) []Time {
		g := NewShardGroup(7, shards, testLat)
		type mailbox struct {
			proc  *Proc
			ready bool
		}
		boxes := make([]*mailbox, ranks)
		engs := make([]*Engine, ranks)
		finished := make([]Time, ranks)
		for r := 0; r < ranks; r++ {
			boxes[r] = &mailbox{}
			engs[r] = g.Shard(place(r))
		}
		deliver := func(dst int) Action {
			return funcAction(func() {
				b := boxes[dst]
				b.ready = true
				if b.proc != nil {
					engs[dst].WakeAt(engs[dst].Now(), b.proc.Fiber)
					b.proc = nil
				}
			})
		}
		for r := 0; r < ranks; r++ {
			r := r
			body := func(p *Proc) {
				var sendSeq uint64
				for i := 0; i < rounds; i++ {
					if r != 0 || i != 0 {
						for !boxes[r].ready {
							boxes[r].proc = p
							park(p, "token")
						}
						boxes[r].ready = false
					}
					advance(p, Time(10+r))
					dst := (r + 1) % ranks
					pri := (uint64(r)+1)<<40 | sendSeq
					sendSeq++
					engs[r].Post(engs[dst], p.Now()+testLat, pri, deliver(dst))
				}
				finished[r] = p.Now()
			}
			engs[r].SpawnFiberID(r, fmt.Sprintf("rank%d", r), func(f *Fiber) StepFunc { return f.Host(body) })
		}
		if _, err := g.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return finished
	}
	ref := run(1, func(int) int { return 0 })
	for _, shards := range []int{2, 4, 8} {
		got := run(shards, func(r int) int { return r % shards })
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d: finish times diverge\ngot  %v\nwant %v", shards, got, ref)
		}
	}
}

// TestShardGroupDeadlockAggregates checks that a cross-shard deadlock
// reports the blocked set of every shard in one error.
func TestShardGroupDeadlockAggregates(t *testing.T) {
	g := NewShardGroup(1, 2, testLat)
	for s := 0; s < 2; s++ {
		s := s
		g.Shard(s).spawn(fmt.Sprintf("stuck%d", s), func(p *Proc) {
			park(p, "waiting forever")
		})
	}
	_, err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked set %v, want both shards' procs", de.Blocked)
	}
}

// TestShardGroupStats pins the window counters of the fan-in + ring
// workload under the horizon rule: a shard that holds the earliest event
// runs until another shard's earliest event plus a lookahead, or until one
// lookahead after the first delivery it posts across. The eight sends at
// instant 0 tie, so that window stops every shard at the lookahead; from
// then on one shard at a time holds the token and runs the fan-in and every
// ring hop between its own ranks in one window, ending at the hop that
// leaves the shard. The window count therefore follows the placement, as
// the busy-shard histogram and the posts do, and every window but the
// first is Extended.
func TestShardGroupStats(t *testing.T) {
	const ranks = 8
	g2, _ := runParallelGroup(t, ranks, 2, func(r int) int { return r / 4 })
	// Four of the eight reports cross to shard 0, and the ring crosses the
	// shard boundary twice a lap (3 -> 4, 7 -> 0) for four laps: the sends,
	// the fan-in with hops 1-3, and eight windows for hops 4-33, four hops
	// each.
	want := ShardStats{Windows: 10, LoneWindows: 9, BusyShards: []uint64{0, 9, 1}, Posts: 12, Extended: 9}
	if got := g2.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("2 shards: stats %+v, want %+v", got, want)
	}
	// Two ranks a shard: six reports cross, every second hop does, and
	// hops 2-33 take sixteen windows of two.
	g4, _ := runParallelGroup(t, ranks, 4, func(r int) int { return r / 2 })
	want = ShardStats{Windows: 18, LoneWindows: 17, BusyShards: []uint64{0, 17, 0, 0, 1}, Posts: 22, Extended: 17}
	if got := g4.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("4 shards: stats %+v, want %+v", got, want)
	}
}

// tickEvery keeps shard e busy: an event every period up to and including
// instant until.
func tickEvery(e *Engine, period, until Time) {
	var tick func()
	tick = func() {
		if e.Now()+period <= until {
			e.At(e.Now()+period, tick)
		}
	}
	e.At(0, tick)
}

// TestHostLifetimeShardGroup ends a sharded run every way it can end and
// requires, each time, that neither a shard worker nor a body goroutine is
// left. Every case has windows with both shards busy, so the workers exist
// when the run ends.
func TestHostLifetimeShardGroup(t *testing.T) {
	parked := func(e *Engine, name string) {
		e.spawn(name, func(p *Proc) { park(p, "never woken") })
	}
	bombAt := func(e *Engine, at Time, v string) {
		e.SpawnFiber("bomb "+v, func(f *Fiber) StepFunc {
			return f.Advance(at, func(*Fiber) StepFunc { panic(v) })
		})
	}
	expectPanic := func(t *testing.T, g *ShardGroup, want string) {
		t.Helper()
		defer func() {
			if r := recover(); r != want {
				t.Errorf("recovered %v, want %v", r, want)
			}
		}()
		g.Run()
	}
	multiBusy := func(t *testing.T, g *ShardGroup) {
		t.Helper()
		if st := g.Stats(); st.Windows == st.LoneWindows {
			t.Errorf("no window had both shards busy (%+v): the workers never started", st)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, g *ShardGroup)
	}{
		{"clean", func(t *testing.T, g *ShardGroup) {
			tickEvery(g.Shard(0), testLat, 10*testLat)
			tickEvery(g.Shard(1), testLat, 10*testLat)
			if _, err := g.Run(); err != nil {
				t.Fatal(err)
			}
			multiBusy(t, g)
		}},
		{"deadlock", func(t *testing.T, g *ShardGroup) {
			for s := 0; s < 2; s++ {
				parked(g.Shard(s), fmt.Sprintf("stuck%d", s))
				tickEvery(g.Shard(s), testLat, 5*testLat)
			}
			var dl *DeadlockError
			if _, err := g.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 2 {
				t.Fatalf("Run: %v, want a deadlock of 2", err)
			}
			multiBusy(t, g)
		}},
		{"step panic on shard 1", func(t *testing.T, g *ShardGroup) {
			// The bomb goes off in the third window, on the worker, with
			// shard 0 busy in the same window and a body parked on each
			// shard.
			for s := 0; s < 2; s++ {
				parked(g.Shard(s), fmt.Sprintf("bystander%d", s))
				tickEvery(g.Shard(s), testLat, 10*testLat)
			}
			bombAt(g.Shard(1), 2*testLat+50, "boom1")
			expectPanic(t, g, "boom1")
			multiBusy(t, g)
		}},
		{"step panics on both shards", func(t *testing.T, g *ShardGroup) {
			// Both go off in one window, shard 1's first in virtual time;
			// the lowest shard's is the one re-raised.
			for s := 0; s < 2; s++ {
				parked(g.Shard(s), fmt.Sprintf("bystander%d", s))
				tickEvery(g.Shard(s), testLat, 10*testLat)
			}
			bombAt(g.Shard(0), 2*testLat+60, "boom0")
			bombAt(g.Shard(1), 2*testLat+50, "boom1")
			expectPanic(t, g, "boom0")
			multiBusy(t, g)
		}},
		{"bodies resumed by caller and worker in turn", func(t *testing.T, g *ShardGroup) {
			// Both bodies suspend once per lookahead, at equal instants, for
			// shard 0's rounds: a tie gives neither shard a longer horizon,
			// so every one of those windows has both busy and shard 1's body
			// is resumed by its worker. It then carries on alone, resumed by
			// Run's caller, in one window nobody else can reach.
			const rounds = 8
			var end [2]Time
			for s := 0; s < 2; s++ {
				s := s
				g.Shard(s).spawn(fmt.Sprintf("body%d", s), func(p *Proc) {
					for i := 0; i < rounds*(1+s); i++ {
						advance(p, testLat)
					}
					end[s] = p.Now()
				})
			}
			now, err := g.Run()
			if err != nil || end[0] != rounds*testLat || end[1] != 2*rounds*testLat || now != end[1] {
				t.Fatalf("Run: %v, err %v, bodies finished at %v", now, err, end)
			}
			want := ShardStats{Windows: rounds + 2, LoneWindows: 1, BusyShards: []uint64{0, 1, rounds + 1}, Extended: 1}
			if got := g.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("stats %+v, want %+v", got, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t, NewShardGroup(1, 2, testLat))
			settleGoroutines(t, base)
		})
	}
}

// TestAtActionPriOrdersBeforeSeq pins the heap key extension: at one
// instant, pri orders before seq, and pri-0 events fire before any
// pri-carrying event regardless of scheduling order.
func TestAtActionPriOrdersBeforeSeq(t *testing.T) {
	e := NewEngine(1)
	var order []int
	rec := func(i int) func() { return func() { order = append(order, i) } }
	e.AtActionPri(10, 5, funcAction(rec(5)))
	e.AtActionPri(10, 2, funcAction(rec(2)))
	e.At(10, rec(0))
	e.AtActionPri(10, 1, funcAction(rec(1)))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}
