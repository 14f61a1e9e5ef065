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
	return end, w.Engine().Events(), w.Engine().QueueStats()
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
	// Of the 236 events, the ones that did not ride the same-instant ring or
	// an inline advance went through the queue; the counts are exact for
	// this program, like the event count.
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
	w := NewWorld(Config{Procs: 2, Seed: 3})
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 0, 64, nil)
			return
		}
		req := c.Irecv(r, 0, 0)
		c.Wait(r, req)
		defer func() {
			if recover() == nil {
				t.Error("Test on a consumed request did not panic")
			}
		}()
		c.Test(r, req)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitAnyTestThenWaitBitIdentical drives WaitAny/Test-then-Wait
// interleavings — the pattern that exercises the per-request waiter lists
// — through both process representations and asserts bit-identical
// trajectories (final time and event count).
func TestWaitAnyTestThenWaitBitIdentical(t *testing.T) {
	const msgs = 10
	procBody := func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0, 1:
			for i := 0; i < msgs; i++ {
				r.Compute(sim.Time(2+3*r.ID()) * sim.Microsecond)
				c.Send(r, 2, r.ID(), 1024*int64(1+i%3), i)
			}
		case 2:
			reqs := []*Request{c.Irecv(r, 0, 0), c.Irecv(r, 1, 1)}
			left := []int{msgs, msgs}
			got := 0
			consume := func(idx int) {
				got++
				left[idx]--
				if left[idx] > 0 {
					reqs[idx] = c.Irecv(r, idx, idx)
				} else {
					reqs[idx] = nil
				}
				r.Compute(1 * sim.Microsecond)
			}
			for got < 2*msgs {
				if reqs[0] != nil {
					// Test-then-Wait: poll the first request, then block
					// in WaitAny over both.
					if ok, _ := c.Test(r, reqs[0]); ok {
						consume(0)
						continue
					}
					idx, _ := c.WaitAny(r, reqs)
					consume(idx)
					continue
				}
				idx, _ := c.WaitAny(r, reqs[1:])
				consume(idx + 1)
			}
		}
	}
	fibBody := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		switch r.ID() {
		case 0, 1:
			i := 0
			var loop sim.StepFunc
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if i >= msgs {
					return nil
				}
				n := i
				i++
				return r.FCompute(sim.Time(2+3*r.ID())*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, 2, r.ID(), 1024*int64(1+n%3), n, loop)
				})
			}
			return loop
		default:
			reqs := []*Request{c.Irecv(r, 0, 0), c.Irecv(r, 1, 1)}
			left := []int{msgs, msgs}
			got := 0
			var loop sim.StepFunc
			consume := func(idx int) sim.StepFunc {
				got++
				left[idx]--
				if left[idx] > 0 {
					reqs[idx] = c.Irecv(r, idx, idx)
				} else {
					reqs[idx] = nil
				}
				return r.FCompute(1*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc { return loop })
			}
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if got >= 2*msgs {
					return nil
				}
				if reqs[0] != nil {
					return c.FTest(r, reqs[0], func(ok bool, _ Status) sim.StepFunc {
						if ok {
							return consume(0)
						}
						return c.FWaitAny(r, reqs, func(idx int, _ Status) sim.StepFunc {
							return consume(idx)
						})
					})
				}
				return c.FWaitAny(r, reqs[1:], func(idx int, _ Status) sim.StepFunc {
					return consume(idx + 1)
				})
			}
			return loop
		}
	}
	runBothWays(t, 3, procBody, fibBody)
}
