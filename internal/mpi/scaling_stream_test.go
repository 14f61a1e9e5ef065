package mpi_test

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stream"
)

// createChannelBytesPerRank reports the bytes one rank's share of a
// FCreateChannel/FFree cycle allocates on a procs-rank world (one
// consumer per 16 ranks).
func createChannelBytesPerRank(t *testing.T, procs int) float64 {
	t.Helper()
	_, bytes := mpi.HeapPerRound(t, 1, 3, func(channels int) {
		w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: 3})
		_, err := w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
			role := stream.Producer
			if r.ID()%16 == 15 {
				role = stream.Consumer
			}
			i := 0
			var loop sim.StepFunc
			created := func(ch *stream.Channel) sim.StepFunc {
				if ch.ProducerIndex(r) < 0 && ch.ConsumerIndex(r) < 0 {
					t.Errorf("rank %d is in neither group of its channel", r.ID())
				}
				return ch.FFree(r, loop)
			}
			loop = func(*sim.Fiber) sim.StepFunc {
				if i >= channels {
					return nil
				}
				i++
				return stream.FCreateChannel(r, r.World(), role, created)
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

// TestCreateChannelBytesLinearInP pins the shared channel membership:
// setting a channel up allocates O(P) bytes over the whole world, so a
// rank's share stays put as the world grows. When every rank built its own
// producer and consumer lists from a result of its own the share grew with
// P (O(P^2) in total).
func TestCreateChannelBytesLinearInP(t *testing.T) {
	small, large := createChannelBytesPerRank(t, 64), createChannelBytesPerRank(t, 512)
	t.Logf("FCreateChannel allocates %.0f B per rank at 64 ranks, %.0f B at 512", small, large)
	if small <= 0 || large > 2*small {
		t.Errorf("FCreateChannel allocates %.0f B per rank at 512 ranks against %.0f B at 64, want at most 2x", large, small)
	}
}

// streamElementAllocs reports the allocations one stream element
// costs end to end (Isend on one of three producers to the operator on
// the one consumer), with producers computing gap between elements and the
// operator computing work on each.
func streamElementAllocs(t *testing.T, gap, work sim.Time) float64 {
	t.Helper()
	const procs, producers = 4, 3
	mallocs, _ := mpi.HeapPerRound(t, 200, 600, func(rounds int) {
		w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: 3})
		_, err := w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
			role := stream.Producer
			if r.ID() >= producers {
				role = stream.Consumer
			}
			return stream.FCreateChannel(r, r.World(), role, func(ch *stream.Channel) sim.StepFunc {
				st := ch.Attach(r, stream.Options{ElementBytes: 64})
				free := func(*sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
				if role == stream.Consumer {
					return st.FOperate(r,
						func(r *mpi.Rank, _ stream.Element, _ int, then sim.StepFunc) sim.StepFunc {
							return r.FCompute(work, then)
						},
						func(stream.Stats) sim.StepFunc { return free })
				}
				n := 0
				var loop sim.StepFunc
				inject := sim.Then(func() { st.Isend(r, stream.Element{}) }, &loop)
				loop = func(*sim.Fiber) sim.StepFunc {
					if n >= rounds {
						st.Terminate(r)
						return free
					}
					n++
					return r.FCompute(gap, inject)
				}
				return loop
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	})
	return mallocs / producers
}

// TestStreamElementAllocsPerCall pins the stream element: it travels
// as the message's own size and payload, so an element that meets a posted
// receive allocates nothing, and neither does one that lands unexpected
// while the consumer keeps pace, because the message it waits in recycles
// once received. Only a consumer falling ever further behind pays, one
// message per element of backlog growth (plus the queues' amortized
// growth). The one-element slice and the boxed batch used to cost two
// more, every time.
func TestStreamElementAllocsPerCall(t *testing.T) {
	us := sim.Microsecond
	matched := streamElementAllocs(t, 50*us, us)  // consumer idle on arrival
	queued := streamElementAllocs(t, 30*us, 9*us) // consumer 90% busy: arrivals queue, backlog steady
	flooded := streamElementAllocs(t, us, 50*us)  // backlog grows with the run
	t.Logf("an element allocates %.2f objects matched on arrival, %.2f queued behind a busy consumer, %.2f flooding it",
		matched, queued, flooded)
	if matched != 0 || queued != 0 {
		t.Errorf("an element allocates %.2f objects matched on arrival and %.2f queued at a steady backlog, want 0 and 0", matched, queued)
	}
	if flooded > 1.05 {
		t.Errorf("an element flooding the consumer allocates %.2f objects, want at most its message (1)", flooded)
	}
}
