package mpi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// runRecycleProgram runs a program whose messages mostly land unexpected,
// on a world of 8 ranks dealt round-robin over shards, and returns every
// rank's finish instant. Each round a rank sends to its right neighbour on
// tag 0 and three to the right on tag 1, computes for a skewed while, then
// receives both — the first by a concrete selector, the second by
// AnySource, so the message sits in its bucket, a wildcard side-list and
// the arrival list before it recycles. Payloads name their round and
// sender: a message reused while a list still held it would surface as a
// wrong payload. Every fourth round an FAllreduce draws the pooled
// collective state too.
func runRecycleProgram(t *testing.T, shards, rounds int) []sim.Time {
	t.Helper()
	const p = 8
	finish := make([]sim.Time, p)
	w := NewWorld(Config{Procs: p, Seed: 9, Shards: shards, Place: func(rank int) int { return rank % shards }})
	_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
		c, me := r.World(), r.ID()
		left, far := (me-1+p)%p, (me-3+p)%p
		i := 0
		var loop sim.StepFunc
		loop = func(*sim.Fiber) sim.StepFunc {
			if i >= rounds {
				finish[me] = r.Now()
				return nil
			}
			round := i
			i++
			c.IsendAndFree(r, (me+1)%p, 0, 64, round*100+me)
			c.IsendAndFree(r, (me+3)%p, 1, 256, -(round*100 + me))
			return r.FCompute(sim.Time((me*7+round)%5)*3*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
				return c.FRecv(r, left, 0, func(st Status) sim.StepFunc {
					if st.Data != round*100+left || st.Bytes != 64 {
						t.Errorf("shards=%d rank %d round %d: tag 0 delivered %+v", shards, me, round, st)
					}
					return c.FRecv(r, AnySource, 1, func(st Status) sim.StepFunc {
						if st.Data != -(round*100+far) || st.Source != far || st.Bytes != 256 {
							t.Errorf("shards=%d rank %d round %d: tag 1 delivered %+v", shards, me, round, st)
						}
						if round%4 != 0 {
							return loop
						}
						return c.FAllreduce(r, Part{Bytes: 8, Data: int64(me)}, SumInt64, nil, func(sum Part) sim.StepFunc {
							if sum.Data != int64(p*(p-1)/2) {
								t.Errorf("shards=%d rank %d round %d: allreduce gave %v", shards, me, round, sum.Data)
							}
							return loop
						})
					})
				})
			})
		}
		return loop
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	recycled := len(w.msgFree)
	for i := range w.shardPools {
		recycled += len(w.shardPools[i].msgFree)
	}
	queued := 0 // ranks whose arrival list was ever used
	for _, rs := range w.ranks {
		if cap(rs.match.arrivals) > 0 {
			queued++
		}
	}
	if recycled == 0 || queued < p/2 {
		t.Errorf("shards=%d: %d messages pooled and %d of %d ranks saw an unexpected message; the program missed the path", shards, recycled, queued, p)
	}
	return finish
}

// TestMessageRecycleAcrossShards runs the recycle path in the parallel
// mode: a message is drawn from the sender's shard pool, queued and
// recycled on the receiver's, while other shards do the same (CI runs
// this under -race -count=10). Payloads must arrive intact at every shard
// count and the sharded family must agree on every finish instant.
func TestMessageRecycleAcrossShards(t *testing.T) {
	const rounds = 300
	runRecycleProgram(t, 1, rounds)
	if two, four := runRecycleProgram(t, 2, rounds), runRecycleProgram(t, 4, rounds); !reflect.DeepEqual(two, four) {
		t.Errorf("finish instants differ between 2 and 4 shards:\n  2: %v\n  4: %v", two, four)
	}
}

// TestSharedWorldRecycleAcrossClusters moves a released shared-engine
// world into a cluster that differs in everything the world adopts —
// engine, bank width and policy, job count, its own job index, its size
// and name — and requires the run to equal that of a world built fresh for
// the second cluster. sync.Pool may drop a world (it does so at random
// under the race detector), so the hand-over is retried until the pool
// returns the released world itself.
func TestSharedWorldRecycleAcrossClusters(t *testing.T) {
	type outcome struct {
		finish []sim.Time
		busy   sim.Time
	}
	// run starts a job that mixes unexpected messages, a collective and
	// shared-file writes on w and runs its engine.
	run := func(w *World, e *sim.Engine, bank *sim.Bank) outcome {
		p := len(w.ranks)
		out := outcome{finish: make([]sim.Time, p)}
		w.StartFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			c, me := r.World(), r.ID()
			return c.FOpen(r, "out.dat", func(f *File) sim.StepFunc {
				i := 0
				var loop sim.StepFunc
				loop = func(*sim.Fiber) sim.StepFunc {
					if i == 6 {
						out.finish[me] = r.Now()
						return nil
					}
					i++
					c.IsendAndFree(r, (me+1)%p, 0, 512, me)
					return r.FCompute(sim.Time(me%3+1)*5*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
						return c.FRecv(r, AnySource, 0, func(Status) sim.StepFunc {
							return c.FAllreduce(r, Part{Bytes: 8, Data: int64(me)}, SumInt64, nil, func(Part) sim.StepFunc {
								return f.FWriteShared(r, int64(me+1)<<14, loop)
							})
						})
					})
				}
				return loop
			})
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out.busy = bank.JobBusy(w.cfg.Job)
		return out
	}
	first := func() (Config, *sim.Engine, *sim.Bank) {
		e, bank := sim.NewEngine(3), sim.NewBank(4, 2, sim.BankFair)
		return Config{Procs: 8, Seed: 3, Engine: e, Bank: bank, Job: 1, Name: "first"}, e, bank
	}
	second := func() (Config, *sim.Engine, *sim.Bank) {
		e, bank := sim.NewEngine(5), sim.NewBank(2, 3, sim.BankFairWC)
		return Config{Procs: 6, Seed: 5, Engine: e, Bank: bank, Job: 2, Name: "second"}, e, bank
	}
	// The reference runs on a world built from scratch: the pool is
	// drained first.
	for sharedWorldPool.Get() != nil {
	}
	cfg, e, bank := second()
	want := run(NewWorld(cfg), e, bank)

	for attempt := 0; attempt < 50; attempt++ {
		cfg, e, bank := first()
		old := NewWorld(cfg)
		run(old, e, bank)
		old.Release()
		cfg, e, bank = second()
		w := NewWorld(cfg)
		if w != old {
			continue
		}
		if got := run(w, e, bank); !reflect.DeepEqual(got, want) {
			t.Errorf("recycled world: %+v\nfresh world:    %+v", got, want)
		}
		return
	}
	t.Fatal("the pool never handed the released world back")
}

// TestBacklogBehindLiveHeadStaysBounded: one message stays queued at the
// head of the arrival list and of a wildcard side list while 1,000 more
// arrive and are received behind it. Both lists compact the consumed
// entries, so each stays within 64 entries, and every message a
// compaction lets go of returns to the pool.
func TestBacklogBehindLiveHeadStaysBounded(t *testing.T) {
	x := matchIndex{pool: &pools{}}
	made := map[*message]bool{}
	arrive := func(tag int) {
		m := x.pool.newMessage()
		m.src, m.tag = 1, int32(tag)
		made[m] = true
		x.addUnexpected(m)
	}
	arrive(1)                             // never received
	side := x.selectorQueue(0, 1, AnyTag) // a wildcard list it heads
	for i := 0; i < 1000; i++ {
		arrive(2)
		if _, ok := x.takeQueued(0, 1, 2, &Request{}); !ok {
			t.Fatalf("receive %d found nothing", i)
		}
		if n := len(x.arrivals) - x.arrHead; n > 64 {
			t.Fatalf("after %d receives the arrival list holds %d entries for 1 live message", i+1, n)
		}
		if n := len(side.items) - side.head; n > 64 {
			t.Fatalf("after %d receives the side list holds %d entries for 1 live message", i+1, n)
		}
	}
	x.reset()
	if len(x.pool.msgFree) != len(made) {
		t.Errorf("%d of the %d messages made are back in the pool after reset", len(x.pool.msgFree), len(made))
	}
}

// TestResetKeepsNoReferences: the posted and queued lists of an
// application tag stay in their tables across reset, backing arrays and
// all, so a pooled world would otherwise keep the last run's receives
// and messages reachable from slots past each list's end. After reset no
// slot of such a list points at anything.
func TestResetKeepsNoReferences(t *testing.T) {
	x := matchIndex{pool: &pools{}}
	for tag := 1; tag <= 3; tag++ {
		x.post(&postedRecv{src: 1, tag: tag})
		x.selectorQueue(0, 2, tag) // builds the queued list the message enters
		m := x.pool.newMessage()
		m.src, m.tag = 2, int32(tag)
		x.addUnexpected(m)
	}
	x.reset()
	for k, q := range x.posted.all() {
		for i, p := range q.items[:cap(q.items)] {
			if p != nil {
				t.Errorf("posted list %v keeps a receive in slot %d after reset", k, i)
			}
		}
	}
	for k, q := range x.queued.all() {
		for i, m := range q.items[:cap(q.items)] {
			if m != nil {
				t.Errorf("queued list %v keeps a message in slot %d after reset", k, i)
			}
		}
	}
}
