package mpi

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTracingObservesOnePath runs a barrier after uneven compute traced
// and untraced. Tracing must leave the end instant and the event count
// where they were, and each rank's traced waits must cover its barrier
// from entry to exit, the send wait of each round included, all but the
// CPU overhead of its three sends.
func TestTracingObservesOnePath(t *testing.T) {
	const procs = 6
	run := func(tr Tracer) (sim.Time, uint64, []sim.Time) {
		barrier := make([]sim.Time, procs)
		w := NewWorld(Config{Procs: procs, Seed: 42, Tracer: tr})
		end, err := w.Run(func(r *Rank) {
			c := r.World()
			r.Compute(sim.Time(procs-r.ID()) * sim.Microsecond)
			start := r.Now()
			c.Barrier(r)
			barrier[r.ID()] = r.Now() - start
		})
		if err != nil {
			t.Fatalf("traced %v: %v", tr != nil, err)
		}
		return end, w.eng.Events(), barrier
	}
	plainEnd, plainEvents, _ := run(nil)
	var rec trace.Recorder
	end, events, barrier := run(&rec)
	if end != plainEnd || events != plainEvents {
		t.Fatalf("tracing moved the trajectory: end %v after %d events, untraced %v after %d", end, events, plainEnd, plainEvents)
	}
	for rank, d := range barrier {
		if got, want := rec.Busy(rank)["comm"], d-3*fabric.SendOverhead; got != want {
			t.Errorf("rank %d: traced barrier waits %v, want %v of its %v", rank, got, want, d)
		}
	}
}

// TestTracingRecordsWaitColl: rank 0 starts a nonblocking barrier while
// the others still compute, so its WaitColl parks; the wait is traced as
// one "waitcoll" span that starts after Ibarrier returned and ends when
// WaitColl does.
func TestTracingRecordsWaitColl(t *testing.T) {
	var rec trace.Recorder
	var posted, done sim.Time
	w := NewWorld(Config{Procs: 4, Seed: 42, Tracer: &rec})
	if _, err := w.Run(func(r *Rank) {
		c := r.World()
		r.Compute(sim.Time(r.ID()) * sim.Millisecond)
		cr := c.Ibarrier(r)
		if r.ID() == 0 {
			posted = r.Now()
		}
		c.WaitColl(r, cr)
		if r.ID() == 0 {
			done = r.Now()
		}
	}); err != nil {
		t.Fatal(err)
	}
	var waits []trace.Span
	for _, s := range rec.Spans() {
		if s.Rank == 0 && s.Label == "waitcoll" {
			waits = append(waits, s)
		}
	}
	if len(waits) != 1 || waits[0].Start < posted || waits[0].End != done {
		t.Errorf("rank 0 posted at %v and left WaitColl at %v; its waitcoll spans: %+v", posted, done, waits)
	}
}

// TestWorldPoolReuseDeterminism checks that a world recycled through
// Release/NewWorld reproduces a fresh world's trajectory exactly, across
// different sizes and both representations.
func TestWorldPoolReuseDeterminism(t *testing.T) {
	body := func(r *Rank) {
		c := r.World()
		next := (r.ID() + 1) % r.World().Size()
		prev := (r.ID() - 1 + r.World().Size()) % r.World().Size()
		for i := 0; i < 4; i++ {
			c.Send(r, next, 0, 8192, nil)
			c.Recv(r, prev, 0)
			c.Allreduce(r, Part{Bytes: 8, Data: 1.0}, SumFloat64, nil)
		}
	}
	run := func(procs int) sim.Time {
		w := NewWorld(Config{Procs: procs, Seed: 9})
		end, err := w.Run(body)
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
		return end
	}
	first8 := run(8)
	run(16) // force a differently-sized reset in between
	run(3)
	if again := run(8); again != first8 {
		t.Fatalf("recycled world diverged: %v vs %v", again, first8)
	}
}

// Aliases keeping the fiber benchmarks readable.
type (
	simFiber = sim.Fiber
	simStep  = sim.StepFunc
)

// TestStatusScratchAllocFree guards WaitAll's status-slice reuse: once
// warmed to a size, the rank scratch must hand out slices without
// allocating.
func TestStatusScratchAllocFree(t *testing.T) {
	rs := &rankState{}
	rs.statusScratch(8)
	if a := testing.AllocsPerRun(200, func() { rs.statusScratch(8) }); a != 0 {
		t.Errorf("statusScratch allocates %.0f allocs/op after warm-up, want 0", a)
	}
}

// TestFiberWaitAllocFree guards the pooled fiber wait states: a warmed
// world must serve fwait/fwaitAny/fwaitAll cycles from its freelists.
func TestFiberWaitAllocFree(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 3})
	body := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if i >= 50 {
				return nil
			}
			i++
			if r.ID() == 0 {
				return c.FSend(r, 1, 0, 64, nil, func(_ *sim.Fiber) sim.StepFunc {
					return c.FRecv(r, 1, 0, func(Status) sim.StepFunc { return loop })
				})
			}
			return c.FRecv(r, 0, 0, func(Status) sim.StepFunc {
				return c.FSend(r, 0, 0, 64, nil, loop)
			})
		}
		return loop
	}
	if _, err := w.RunFibers(body); err != nil {
		t.Fatal(err)
	}
	if len(w.fwFree) == 0 {
		t.Fatal("no pooled fwait states after a fiber run")
	}
	free := len(w.fwFree)
	w.Release()
	w2 := NewWorld(Config{Procs: 2, Seed: 3})
	if _, err := w2.RunFibers(body); err != nil {
		t.Fatal(err)
	}
	if got := len(w2.fwFree); got > free {
		t.Errorf("recycled world grew its fwait pool to %d (was %d): waits are allocating new states", got, free)
	}
}
