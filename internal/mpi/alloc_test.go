package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
)

// allocTrials is how many times the guards below repeat a measurement.
const allocTrials = 5

// heapDuring reports the heap allocations f performs, as a count and in
// bytes, with the GC disabled so pool contents survive the measurement.
// runtime.MemStats is process-wide: a background runtime allocation or
// another P's scheduler lands in the difference, which is how a
// zero-alloc path used to read 0.01 allocs/round in one run of three. So
// the measurement pins one P and takes the minimum over allocTrials runs
// of f, each right after an unmeasured call of prep. Such noise only ever
// adds, and f after prep is deterministic, so the minimum is its own
// count.
func heapDuring(prep, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for trial := 0; trial < allocTrials; trial++ {
		prep()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		m, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if trial == 0 || m < mallocs {
			mallocs = m
		}
		if trial == 0 || b < bytes {
			bytes = b
		}
	}
	return mallocs, bytes
}

// heapPerRound measures the steady-state allocation cost of one round of
// a parameterized simulation, as a count and in bytes, by differencing two
// run lengths: fixed set-up costs (world construction, goroutine spawning,
// lazily-built wait-state pools) cancel, leaving only the per-round cost.
// run must build, run and Release a world performing `rounds` rounds.
//
// A run reuses the world the run before it released, so what it allocates
// can depend on that run: when a world's matching index dropped the
// messages a run left in its lists instead of recycling them, the stream
// element guard's run cost 246 objects after a 600-round run and 202
// after a 200-round one, whatever its own length. So every measured run of
// either length follows an unmeasured long run, which also warms every
// pool past the long run's high-water mark. When only some trials followed
// a run of the other length, a minimum that fell on one of them made that
// guard fail about once in 40 runs.
func heapPerRound(t *testing.T, short, long int, run func(rounds int)) (mallocs, bytes float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation guards are meaningless under the race detector")
	}
	prep := func() { run(long) }
	mShort, bShort := heapDuring(prep, func() { run(short) })
	mLong, bLong := heapDuring(prep, func() { run(long) })
	per := func(s, l uint64) float64 {
		if l < s {
			return 0
		}
		return float64(l-s) / float64(long-short)
	}
	return per(mShort, mLong), per(bShort, bLong)
}

// perRound is heapPerRound's allocation count at the run lengths the
// zero-alloc guards use.
func perRound(t *testing.T, run func(rounds int)) float64 {
	t.Helper()
	mallocs, _ := heapPerRound(t, 200, 600, run)
	return mallocs
}

// TestFiberP2PHotPathZeroAlloc pins the FSend/FRecv round trip at zero
// allocations per round (pooled fwait states plus the
// pooled requests/messages).
func TestFiberP2PHotPathZeroAlloc(t *testing.T) {
	run := func(rounds int) {
		w := NewWorld(Config{Procs: 2, Seed: 5})
		_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
			c := r.World()
			i := 0
			var loop sim.StepFunc
			var afterSend, afterRecv func(Status) sim.StepFunc
			afterSend = func(Status) sim.StepFunc { return loop }
			sendBack := func(_ *sim.Fiber) sim.StepFunc {
				return c.FSend(r, 0, 1, 512, nil, loop)
			}
			afterRecv = func(Status) sim.StepFunc { return sendBack }
			recvReply := func(_ *sim.Fiber) sim.StepFunc {
				return c.FRecv(r, 1, 1, afterSend)
			}
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if i >= rounds {
					return nil
				}
				i++
				if r.ID() == 0 {
					return c.FSend(r, 1, 0, 1024, nil, recvReply)
				}
				return c.FRecv(r, 0, 0, afterRecv)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("fiber ping-pong allocates %.2f allocs/round in steady state, want 0", got)
	}
}

// TestFWaitAnyHotPathZeroAlloc pins the FWaitAny consumer loop — the
// Fig. 8 stream shape: a fan-in consumer parked on per-request waiters,
// reposting after every message — at zero allocations per message.
func TestFWaitAnyHotPathZeroAlloc(t *testing.T) {
	const producers = 2
	run := func(rounds int) {
		w := NewWorld(Config{Procs: producers + 1, Seed: 5})
		_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
			c := r.World()
			if r.ID() < producers {
				i := 0
				var loop sim.StepFunc
				send := func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, producers, r.ID(), 2048, nil, loop)
				}
				loop = func(_ *sim.Fiber) sim.StepFunc {
					if i >= rounds {
						return nil
					}
					i++
					return r.FCompute(sim.Time(1+r.ID())*sim.Microsecond, send)
				}
				return loop
			}
			reqs := make([]*Request, producers)
			left := make([]int, producers)
			for i := range reqs {
				reqs[i] = c.Irecv(r, i, i)
				left[i] = rounds
			}
			got := 0
			var loop sim.StepFunc
			var onMsg func(int, Status) sim.StepFunc
			onMsg = func(idx int, _ Status) sim.StepFunc {
				got++
				left[idx]--
				if left[idx] > 0 {
					reqs[idx] = c.Irecv(r, idx, idx)
				} else {
					reqs[idx] = nil
				}
				return loop
			}
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if got >= producers*rounds {
					return nil
				}
				return c.FWaitAny(r, reqs, onMsg)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("FWaitAny fan-in allocates %.2f allocs/message in steady state, want 0", got)
	}
}
