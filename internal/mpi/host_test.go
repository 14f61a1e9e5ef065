package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// settleGoroutines waits for the goroutine count to come back to base: a
// body goroutine has signalled its exit by the time Run returns, but may
// not have been descheduled for the last time yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines, %d before the run: a rank's body goroutine outlived it", n, base)
	}
}

// TestBlockingCallOnStepFunctionBodyPanics calls a blocking form from a
// RunFibers body — one point-to-point, one collective and one I/O call
// (the stream package tests Operate). There is no goroutine to park, so
// the call must panic naming itself, the rank and the form to use.
func TestBlockingCallOnStepFunctionBodyPanics(t *testing.T) {
	cases := []struct {
		call string
		body func(r *Rank) sim.StepFunc
	}{
		{"Wait", func(r *Rank) sim.StepFunc {
			r.World().Wait(r, r.World().Irecv(r, 0, 0))
			return nil
		}},
		{"Barrier", func(r *Rank) sim.StepFunc {
			r.World().Barrier(r)
			return nil
		}},
		{"WriteShared", func(r *Rank) sim.StepFunc {
			return r.World().FOpen(r, "f", func(f *File) sim.StepFunc {
				f.WriteShared(r, 10)
				return nil
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.call, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{tc.call + " is a blocking call", "rank 1", "use F" + tc.call} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not say %q", msg, want)
					}
				}
			}()
			w := NewWorld(Config{Procs: 2, Seed: 1})
			w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
				if r.ID() == 0 {
					return r.World().FBarrier(r, nil) // keeps rank 1's FOpen company
				}
				return tc.body(r)
			})
		})
	}
}

// TestHostLifetime ends blocking rank bodies every way a run can end them
// and requires, each time, that no body goroutine is left and that the
// engine resets (for a pooled world, that the next NewWorld gets it back).
func TestHostLifetime(t *testing.T) {
	stuck := func(r *Rank) {
		if r.ID() > 0 {
			r.World().Recv(r, 0, 99) // never sent
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) *sim.Engine
	}{
		{"deadlock", func(t *testing.T) *sim.Engine {
			w := NewWorld(Config{Procs: 4, Seed: 1})
			_, err := w.Run(stuck)
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("Run: %v, want a deadlock", err)
			}
			// The step-function form of the same program is reported the same.
			wf := NewWorld(Config{Procs: 4, Seed: 1})
			_, ferr := wf.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc {
				if r.ID() > 0 {
					return r.World().FRecv(r, 0, 99, func(Status) sim.StepFunc { return nil })
				}
				return nil
			})
			var fdl *sim.DeadlockError
			want := []string{"rank1 (mpi wait)", "rank2 (mpi wait)", "rank3 (mpi wait)"}
			if !errors.As(ferr, &fdl) || !reflect.DeepEqual(dl.Blocked, want) || !reflect.DeepEqual(fdl.Blocked, want) {
				t.Errorf("blocked: blocking bodies %q, step functions %q (%v), want %q", dl.Blocked, fdl, ferr, want)
			}
			return w.eng
		}},
		{"body panic", func(t *testing.T) (e *sim.Engine) {
			w := NewWorld(Config{Procs: 4, Seed: 1})
			e = w.eng
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `process "rank0" panicked: boom`) {
					t.Errorf("recovered %q, want rank 0's panic", msg)
				}
			}()
			w.Run(func(r *Rank) {
				stuck(r)
				r.Compute(sim.Microsecond)
				panic("boom")
			})
			return e
		}},
		{"crash, respawn, rebuild", func(t *testing.T) *sim.Engine {
			const procs, iters = 4, 16
			base := baselineMakespan(t, procs, iters)
			st := newRecShared(iters, procs)
			w := NewWorld(Config{Procs: procs, Seed: 11, Crashes: []sim.CrashEvent{
				{At: base / 4, Target: 1, Restart: 80 * sim.Microsecond},
				{At: base / 2, Target: 3, Restart: 120 * sim.Microsecond},
			}})
			mustRun(t, w, recProcBody(st))
			if st.committed != iters || st.restarts[1] != 1 || st.restarts[3] != 1 {
				t.Fatalf("committed %d of %d, restarts %v", st.committed, iters, st.restarts)
			}
			return w.eng
		}},
		{"abort before run", func(t *testing.T) *sim.Engine {
			e := sim.NewEngine(1)
			w := NewWorld(Config{Procs: 4, Seed: 1, Engine: e})
			w.Start(stuck)
			return e
		}},
		{"release and pooled reuse", func(t *testing.T) *sim.Engine {
			body := func(r *Rank) {
				r.World().Allreduce(r, Part{Bytes: 8, Data: 1.0}, SumFloat64, nil)
			}
			w := NewWorld(Config{Procs: 4, Seed: 1})
			first := mustRun(t, w, body)
			w.Release()
			// NewWorld resets a pooled world's engine, which refuses one with
			// a live body.
			w = NewWorld(Config{Procs: 4, Seed: 1})
			if again := mustRun(t, w, body); again != first {
				t.Errorf("reused world ended at %v, fresh one at %v", again, first)
			}
			return w.eng
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := tc.run(t)
			settleGoroutines(t, base)
			e.Reset(2)
		})
	}
}

// TestBlockingOnlyOperationsPinned runs the operations that exist in
// blocking form only — Gatherv, Ibarrier (its helper a plain fiber) and
// WriteAt, written against the blocking calls — and holds end time, event
// count and results to fixed values.
func TestBlockingOnlyOperationsPinned(t *testing.T) {
	const procs = 6
	results := make([]string, procs)
	w := NewWorld(Config{Procs: procs, Seed: 42})
	end := mustRun(t, w, func(r *Rank) {
		c := r.World()
		me := r.ID()
		r.Compute(sim.Time(me+1) * sim.Microsecond)
		gathered := c.Gatherv(r, 2, Part{Bytes: int64(16 * (me + 1)), Data: me})
		ib := c.Ibarrier(r)
		r.Compute(sim.Time(procs-me) * sim.Microsecond)
		c.WaitColl(r, ib)
		f := c.Open(r, "blocking-only.dat")
		f.WriteAt(r, int64(me+1)<<16)
		c.Barrier(r)
		results[me] = fmt.Sprint(len(gathered), f.Ops(), " at ", int64(r.Now()))
	})
	// End and results recorded with this body at the last commit that
	// still had the blocking-only operations nothing called (DESIGN.md,
	// "Sweeps as data"); the event count since waits suspend once and a
	// barrier round's send is its receive's floor (262 before; DESIGN.md,
	// "Known outcomes").
	const (
		wantEnd    = sim.Time(918134)
		wantEvents = uint64(171)
	)
	wantResults := []string{
		"0 6 at 918134",
		"0 6 at 915034",
		"6 6 at 916584",
		"0 6 at 915034",
		"0 6 at 916584",
		"0 6 at 916584",
	}
	if end != wantEnd || w.eng.Events() != wantEvents || !reflect.DeepEqual(results, wantResults) {
		t.Errorf("end %d, %d events, results %q;\nwant %d, %d, %q", end, w.eng.Events(), results, wantEnd, wantEvents, wantResults)
	}
}
