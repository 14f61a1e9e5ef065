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
