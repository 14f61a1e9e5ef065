package mpi

import (
	"testing"

	"repro/internal/sim"
)

// runDirectWake runs body on procs ranks and returns the final time, the
// engine's event count and what its event queue did. The event counts the
// callers pin were recorded at PR 12, the last commit that could still run
// the legacy broadcast wake beside the direct one (it fired 5.4% more
// events on the Fig. 8 shape): a literal keeps the guard machine-neutral
// now that there is nothing left to compare against.
func runDirectWake(t *testing.T, procs int, body func(*Rank)) (sim.Time, uint64, sim.QueueStats) {
	t.Helper()
	w := NewWorld(Config{Procs: procs, Seed: 11})
	end, err := w.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	return end, w.eng.Events(), w.eng.QueueStats()
}

// TestDirectWakeWaitAny drives a fan-in consumer (the Fig. 8 shape: many
// producers, one WaitAny loop): it must drain every message, waking once
// per completion and never per unrelated delivery.
func TestDirectWakeWaitAny(t *testing.T) {
	const producers, msgs = 3, 16
	total := 0
	body := func(r *Rank) {
		c := r.World()
		if r.ID() < producers {
			for i := 0; i < msgs; i++ {
				r.Compute(sim.Time(1+r.ID()) * sim.Microsecond)
				c.Send(r, producers, r.ID(), 2048, nil)
			}
			return
		}
		reqs := make([]*Request, producers)
		left := make([]int, producers)
		for i := range reqs {
			reqs[i] = c.Irecv(r, i, i)
			left[i] = msgs
		}
		for got := 0; got < producers*msgs; got++ {
			idx, _ := c.WaitAny(r, reqs)
			total++
			left[idx]--
			if left[idx] > 0 {
				reqs[idx] = c.Irecv(r, idx, idx)
			} else {
				reqs[idx] = nil
			}
		}
	}
	end, events, queue := runDirectWake(t, producers+1, body)
	if total != producers*msgs {
		t.Fatalf("consumer drained %d messages, want %d", total, producers*msgs)
	}
	if events != 236 {
		t.Errorf("direct wake fired %d events, PR 12 recorded 236", events)
	}
	// Of the 236 events, the ones that were not an inline advance went
	// through the queue; the counts are exact for this program, like the
	// event count.
	if want := (sim.QueueStats{Pushes: 202, Redistributions: 92, Moves: 286, HighWater: 8}); queue != want {
		t.Errorf("event queue did %+v, want %+v", queue, want)
	}
	if end <= 0 {
		t.Fatalf("degenerate end time %v", end)
	}
}

// TestDirectWakeWaitColl checks the per-collective waiter: ranks park in
// WaitColl while unrelated point-to-point traffic flows through the same
// ranks, none of which may wake the collective waiters.
func TestDirectWakeWaitColl(t *testing.T) {
	body := func(r *Rank) {
		c := r.World()
		cr := c.Iallgatherv(r, Part{Bytes: 8, Data: float64(r.ID())})
		// Unrelated traffic while the collective is in flight.
		next := (r.ID() + 1) % r.World().Size()
		prev := (r.ID() - 1 + r.World().Size()) % r.World().Size()
		for i := 0; i < 4; i++ {
			c.Send(r, next, 5, 4096, nil)
			c.Recv(r, prev, 5)
		}
		for i, p := range c.WaitColl(r, cr).([]Part) {
			if p.Data.(float64) != float64(i) {
				panic("bad allgatherv value")
			}
		}
	}
	// Recorded with this body since waits suspend once and a barrier
	// round's send is its receive's floor (210 before, at the last commit
	// that had Iallreduce; DESIGN.md, "Known outcomes").
	if _, events, _ := runDirectWake(t, 6, body); events != 156 {
		t.Errorf("direct wake fired %d events, want 156", events)
	}
}

// TestConsumedRequestPanics pins the pooled-request poison: a handle
// already consumed by a wait must fail loudly on any further use (the
// silent alternative is pool corruption — a stale slot aliasing another
// rank's live request, as the stream consumer loop once risked with its
// final termination request).
func TestConsumedRequestPanics(t *testing.T) {
	for _, call := range []string{"Test", "Wait", "WaitAll", "WaitAny"} {
		w := NewWorld(Config{Procs: 2, Seed: 3})
		mustRun(t, w, func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				c.Send(r, 1, 0, 64, nil)
				return
			}
			req := c.Irecv(r, 0, 0)
			c.Wait(r, req)
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a consumed request did not panic", call)
				}
			}()
			switch call {
			case "Test":
				c.Test(r, req)
			case "Wait":
				c.Wait(r, req)
			case "WaitAll":
				c.WaitAll(r, req)
			case "WaitAny":
				c.WaitAny(r, []*Request{req})
			}
		})
	}
}
