package mpi

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// Machine-neutral scaling guards: the host cost of one simulated rank must
// not grow with the world size or with the length of the run. Both are
// exact counts of a deterministic program (heapPerRound), not timings.

// allgathervBytesPerCall reports the bytes one rank allocates per
// FAllgatherv call on a procs-rank world.
func allgathervBytesPerCall(t *testing.T, procs int) float64 {
	t.Helper()
	_, bytes := heapPerRound(t, 2, 6, func(calls int) {
		w := NewWorld(Config{Procs: procs, Seed: 3})
		_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			c := r.World()
			i := 0
			var loop sim.StepFunc
			gathered := func([]Part) sim.StepFunc { return loop }
			loop = func(*sim.Fiber) sim.StepFunc {
				if i >= calls {
					return nil
				}
				i++
				return c.FAllgatherv(r, Part{Bytes: 64}, gathered)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	})
	return bytes / float64(procs)
}

// TestAllgathervBytesPerCallIndependentOfP pins the shared result slice:
// a rank's allgatherv allocates its continuations and a 1/P share of the
// one result, not a P-sized result and bundle of its own (8x from 64 to
// 512 ranks before the result was shared).
func TestAllgathervBytesPerCallIndependentOfP(t *testing.T) {
	small, large := allgathervBytesPerCall(t, 64), allgathervBytesPerCall(t, 512)
	t.Logf("FAllgatherv allocates %.0f B per rank call at 64 ranks, %.0f B at 512", small, large)
	if small <= 0 || large > 2*small {
		t.Errorf("FAllgatherv allocates %.0f B per rank call at 512 ranks against %.0f B at 64, want at most 2x", large, small)
	}
}

// matchBucketsAfterEpochs runs epochs FAllreduce calls on a procs-rank
// world and reports the largest len(posted)+len(queued) any rank's match
// index showed on entering or leaving any of its epochs, less what it held
// at the start: a pooled world keeps the reused-tag buckets of its
// previous run.
func matchBucketsAfterEpochs(t *testing.T, procs, epochs int) int {
	t.Helper()
	high := make([]int, procs)
	w := NewWorld(Config{Procs: procs, Seed: 3})
	_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		kept := r.rs.match.posted.len() + r.rs.match.queued.len()
		sample := func() {
			if n := r.rs.match.posted.len() + r.rs.match.queued.len() - kept; n > high[r.ID()] {
				high[r.ID()] = n
			}
		}
		reduced := func(Part) sim.StepFunc {
			sample()
			return loop
		}
		loop = func(*sim.Fiber) sim.StepFunc {
			if i >= epochs {
				return nil
			}
			i++
			// Skewed compute makes early ranks' messages arrive unexpected.
			return r.FCompute(sim.Time(r.ID()%5)*10*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
				sample()
				return c.FAllreduce(r, Part{Bytes: 8, Data: int64(1)}, SumInt64, nil, reduced)
			})
		}
		return loop
	})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, n := range high {
		if n > most {
			most = n
		}
	}
	return most
}

// TestMatchIndexBoundedAcrossEpochs pins bucket retirement: every
// collective epoch uses a fresh tag, and the index used to keep one dead
// bucket per (peer, epoch). The bucket tables must hold live traffic only,
// so their high-water mark does not depend on how long the run is.
func TestMatchIndexBoundedAcrossEpochs(t *testing.T) {
	for _, procs := range []int{16, 12} { // recursive doubling; reduce + broadcast
		few, many := matchBucketsAfterEpochs(t, procs, 50), matchBucketsAfterEpochs(t, procs, 500)
		t.Logf("%d ranks: at most %d buckets after 50 epochs, %d after 500", procs, few, many)
		if few != many || many > 8 {
			t.Errorf("%d ranks: match index holds up to %d buckets over 50 epochs and %d over 500, want the same small constant", procs, few, many)
		}
	}
}

// collectiveAllocsPerCall reports the objects one rank allocates per call
// of a collective on a procs-rank world. starter builds, once per rank,
// the step that starts the collective and continues with *next, so no
// closure of the caller's is counted: what is left is the collective's
// own cost.
func collectiveAllocsPerCall(t *testing.T, procs int, starter func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc) float64 {
	t.Helper()
	mallocs, _ := heapPerRound(t, 4, 12, func(calls int) {
		w := NewWorld(Config{Procs: procs, Seed: 3})
		_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			i := 0
			var loop sim.StepFunc
			start := starter(r.World(), r, &loop)
			loop = func(*sim.Fiber) sim.StepFunc {
				if i >= calls {
					return nil
				}
				i++
				// Skewed entry makes some messages land unexpected.
				return r.FCompute(sim.Time(r.ID()%5)*10*sim.Microsecond, start)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	})
	return mallocs / float64(procs)
}

// fileCallAllocs reports the objects a procs-rank world allocates per
// call of the operation starter starts (on every rank, on one file opened
// over the world communicator), summed over the ranks.
func fileCallAllocs(t *testing.T, procs int, starter func(f *File, c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc) float64 {
	t.Helper()
	mallocs, _ := heapPerRound(t, 4, 12, func(calls int) {
		w := NewWorld(Config{Procs: procs, Seed: 3})
		_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			c := r.World()
			return c.FOpen(r, "guard.dat", func(f *File) sim.StepFunc {
				i := 0
				var loop sim.StepFunc
				start := starter(f, c, r, &loop)
				loop = func(*sim.Fiber) sim.StepFunc {
					if i >= calls {
						return nil
					}
					i++
					return r.FCompute(sim.Time(r.ID()%5)*10*sim.Microsecond, start)
				}
				return loop
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	})
	return mallocs
}

// TestFileCollectiveAllocsPerCall pins what the Fig. 8 write paths
// allocate per call. FWriteShared and FWriteAll keep their steps in a
// pooled struct and FAllgatherv its rounds in the pooled collective state,
// so what is left is: the allgatherv's one shared result (its registry
// entry and its parts, two objects per call over the whole world),
// FWriteAll's size boxed for that allgatherv (one per rank), and the
// shared-pointer token's wait loop (internal/sim's Token.FAcquire, two per
// rank). Each rank call used to build its continuations as closures: at
// 16 ranks the world allocated 96 objects per FWriteShared call, 370 per
// FWriteAll and 178 per FAllgatherv, and at 12 ranks (the allgatherv's
// ring) 72, 278 and 134.
func TestFileCollectiveAllocsPerCall(t *testing.T) {
	ops := []struct {
		name    string
		perRank float64 // objects per rank call
		shared  float64 // objects per call over the world
		starter func(f *File, c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc
	}{
		{"FWriteShared", 2, 0, func(f *File, _ *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			return func(*sim.Fiber) sim.StepFunc { return f.FWriteShared(r, 4096, *next) }
		}},
		{"FWriteAll", 1, 2, func(f *File, _ *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			return func(*sim.Fiber) sim.StepFunc { return f.FWriteAll(r, 4096, *next) }
		}},
		{"FAllgatherv", 0, 2, func(_ *File, c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			then := func([]Part) sim.StepFunc { return *next }
			return func(*sim.Fiber) sim.StepFunc { return c.FAllgatherv(r, Part{Bytes: 64}, then) }
		}},
	}
	for _, op := range ops {
		for _, procs := range []int{16, 12} { // power of two; not
			got := fileCallAllocs(t, procs, op.starter)
			t.Logf("%s allocates %.0f objects per call over %d ranks", op.name, got, procs)
			if want := op.perRank*float64(procs) + op.shared; got != want {
				t.Errorf("%s allocates %.2f objects per call over %d ranks, want %.0f", op.name, got, procs, want)
			}
		}
	}
}

// TestCollectiveAllocsPerCallIndependentOfP pins the pooled collective
// state: a fiber barrier, broadcast, reduce or allreduce draws its round
// state from the rank's pool and builds no continuation per round, so a
// rank call allocates nothing once the pools are warm — at 64 ranks as at
// 512, on the recursive-doubling branch as on reduce-then-broadcast.
// (FAllreduce used to cost 22 objects per rank call at 64 ranks and 33 at
// 512.)
func TestCollectiveAllocsPerCallIndependentOfP(t *testing.T) {
	part := Part{Bytes: 8} // nil payload: SumFloat64 boxes no result
	colls := []struct {
		name    string
		starter func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc
	}{
		{"FBarrier", func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			return func(*sim.Fiber) sim.StepFunc { return c.FBarrier(r, *next) }
		}},
		// A broadcast and a reduce are one-sided: the root, or the leaves,
		// would run ahead of the others without bound and the backlog of
		// unexpected messages would grow with the run, so each call is
		// closed by a barrier (pinned at 0 above).
		{"FBcast", func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			then := func(Part) sim.StepFunc { return c.FBarrier(r, *next) }
			return func(*sim.Fiber) sim.StepFunc { return c.FBcast(r, 0, part, then) }
		}},
		{"FReduce", func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			then := func(Part, bool) sim.StepFunc { return c.FBarrier(r, *next) }
			return func(*sim.Fiber) sim.StepFunc { return c.FReduce(r, 0, part, SumFloat64, nil, then) }
		}},
		{"FAllreduce", func(c *Comm, r *Rank, next *sim.StepFunc) sim.StepFunc {
			then := func(Part) sim.StepFunc { return *next }
			return func(*sim.Fiber) sim.StepFunc { return c.FAllreduce(r, part, SumFloat64, nil, then) }
		}},
	}
	for _, coll := range colls {
		for _, sizes := range [][2]int{{64, 512}, {48, 384}} { // power of two; not
			small := collectiveAllocsPerCall(t, sizes[0], coll.starter)
			large := collectiveAllocsPerCall(t, sizes[1], coll.starter)
			t.Logf("%s allocates %.2f objects per rank call at %d ranks, %.2f at %d",
				coll.name, small, sizes[0], large, sizes[1])
			if small != 0 || large != 0 {
				t.Errorf("%s allocates %.2f objects per rank call at %d ranks and %.2f at %d, want 0 at both",
					coll.name, small, sizes[0], large, sizes[1])
			}
		}
	}
}

// haloMessagesPerRank runs rounds of a six-neighbour halo on a procs-rank
// ring, each rank receiving its neighbours' messages through AnySource, and
// reports the messages the world allocated per rank and how many ranks
// built a concrete bucket for the halo tag.
func haloMessagesPerRank(t *testing.T, procs, rounds int) (perRank float64, buckets int) {
	t.Helper()
	const tag = 9
	w := NewWorld(Config{Procs: procs, Seed: 3})
	w.msgFree = nil // a recycled world brings the previous run's messages
	_, err := w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		me, i, got := r.ID(), 0, 0
		var loop, recv sim.StepFunc
		received := func(Status) sim.StepFunc {
			if got++; got < 6 {
				return recv
			}
			return loop
		}
		recv = func(*sim.Fiber) sim.StepFunc { return c.FRecv(r, AnySource, tag, received) }
		exchange := func(*sim.Fiber) sim.StepFunc {
			for d := 1; d <= 3; d++ {
				c.IsendAndFree(r, (me+d)%procs, tag, 64, nil)
				c.IsendAndFree(r, (me-d+procs)%procs, tag, 64, nil)
			}
			got = 0
			return recv
		}
		loop = func(*sim.Fiber) sim.StepFunc {
			if i >= rounds {
				return nil
			}
			i++
			// Skewed compute: the fast ranks' messages wait unexpected.
			return r.FCompute(sim.Time(me%4)*10*sim.Microsecond, exchange)
		}
		return loop
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range w.ranks {
		for k := range rs.match.queued.all() {
			if k.tag == tag {
				buckets++
				break
			}
		}
		rs.match.reset() // every list lets go: each message is in the pool once
	}
	return float64(len(w.msgFree)) / float64(procs), buckets
}

// TestHaloMessagesIndependentOfP pins message lifetime: a received
// message goes back to the pool at once, so a halo read only through
// AnySource allocates the same few messages per rank at 64 ranks as at
// 512, over 50 rounds as over 500. The pool is the world's, so its size is
// set by the world's busiest instant, whose same-instant order differs by a
// few messages between world sizes: the counts agree to 0.1 per rank.
// Traffic that no concrete receive reads builds no concrete bucket. (The
// concrete buckets used to be built for it and each pinned up to 64
// received messages: 176 per rank after 50 rounds, 222 after 500.)
func TestHaloMessagesIndependentOfP(t *testing.T) {
	var want float64
	for _, procs := range []int{64, 512} {
		for _, rounds := range []int{50, 500} {
			got, buckets := haloMessagesPerRank(t, procs, rounds)
			t.Logf("%d ranks, %d rounds: %.2f messages per rank, %d ranks with a halo bucket", procs, rounds, got, buckets)
			if want == 0 {
				want = got
			}
			if math.Abs(got-want) > 0.1 || got > 8 {
				t.Errorf("%d ranks, %d rounds: %.2f messages allocated per rank, want the same small constant as the first run (%.2f)", procs, rounds, got, want)
			}
			if buckets != 0 {
				t.Errorf("%d ranks, %d rounds: %d ranks built a concrete bucket for the AnySource halo", procs, rounds, buckets)
			}
		}
	}
}
