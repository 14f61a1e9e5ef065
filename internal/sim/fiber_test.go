package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestFiberParkWake checks the external wake path: a parked fiber resumes
// exactly at the WakeAt instant.
func TestFiberParkWake(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	f := e.SpawnFiber("sleeper", func(f *Fiber) StepFunc {
		return f.Park("waiting for wake", func(f *Fiber) StepFunc {
			woke = f.Now()
			return nil
		})
	})
	e.At(50, func() { e.WakeAt(75, f) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 75 {
		t.Fatalf("fiber woke at %v, want 75", woke)
	}
	if !f.Done() {
		t.Fatal("fiber not done after wake")
	}
}

// TestFiberDeadlockReported checks that a fiber parked forever appears in
// the deadlock error alongside blocked processes.
func TestFiberDeadlockReported(t *testing.T) {
	e := NewEngine(1)
	e.SpawnFiber("stuck-fiber", func(f *Fiber) StepFunc {
		return f.Park("never woken", nil)
	})
	e.spawn("stuck-proc", func(p *Proc) {
		park(p, "also never woken")
	})
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "stuck-fiber (never woken)") || !strings.Contains(msg, "stuck-proc (also never woken)") {
		t.Fatalf("deadlock message missing participants: %q", msg)
	}
}

// TestWaitQueueMixedFIFO checks that procs and fibers waiting on one queue
// wake in arrival order across representations.
func TestWaitQueueMixedFIFO(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	e.spawn("proc-first", func(p *Proc) {
		waitOn(&q, p, "mixed")
		order = append(order, "proc-first")
	})
	e.SpawnFiber("fiber-second", func(f *Fiber) StepFunc {
		return q.WaitFiber(f, "mixed", func(f *Fiber) StepFunc {
			order = append(order, "fiber-second")
			return nil
		})
	})
	e.spawn("proc-third", func(p *Proc) {
		advance(p, 1) // ensure it queues after the first two
		waitOn(&q, p, "mixed")
		order = append(order, "proc-third")
	})
	e.At(10, func() { q.Broadcast(e) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"proc-first", "fiber-second", "proc-third"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestFiberDebtSettle checks ParkKeepingDebt + SettleTo folding: debt
// accumulated before a park is observed in the settle target, mirroring
// the proc-side one-yield wait pattern.
func TestFiberDebtSettle(t *testing.T) {
	e := NewEngine(1)
	var end Time
	f := e.SpawnFiber("debtor", func(f *Fiber) StepFunc {
		f.AddDebt(5)
		floor := f.Now() + f.Debt()
		return f.ParkKeepingDebt("awaiting completion", func(f *Fiber) StepFunc {
			target := f.Now()
			if floor > target {
				target = floor
			}
			return f.SettleTo(target, func(f *Fiber) StepFunc {
				end = f.Now()
				return nil
			})
		})
	})
	e.At(3, func() { e.WakeAt(3, f) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5 {
		t.Fatalf("settled at %v, want 5 (park-time floor)", end)
	}
}

// TestFiberSpawnMidRun checks spawning fibers from running simulation code.
func TestFiberSpawnMidRun(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.At(10, func() {
		e.SpawnFiber("child", func(f *Fiber) StepFunc {
			return f.Advance(5, func(f *Fiber) StepFunc {
				childAt = f.Now()
				return nil
			})
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 15 {
		t.Fatalf("child finished at %v, want 15", childAt)
	}
}

// TestEngineResetIdenticalTrajectory runs a program, resets the engine and
// runs it again, asserting the second run is bit-identical to a fresh
// engine's.
func TestEngineResetIdenticalTrajectory(t *testing.T) {
	program := func(e *Engine) (Time, uint64, int64) {
		var draws int64
		for i := 0; i < 4; i++ {
			e.SpawnFiber("f", func(f *Fiber) StepFunc {
				n := 0
				var step StepFunc
				step = func(f *Fiber) StepFunc {
					if n >= 10 {
						return nil
					}
					n++
					draws += int64(f.Rand().Poisson(1))
					return f.Advance(Time(1+n%3), step)
				}
				return step
			})
		}
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end, e.Events(), draws
	}
	fresh := NewEngine(42)
	fEnd, fEv, fDraws := program(fresh)

	reused := NewEngine(7)
	program(reused)
	reused.Reset(42)
	rEnd, rEv, rDraws := program(reused)
	if rEnd != fEnd || rEv != fEv || rDraws != fDraws {
		t.Fatalf("reset engine diverged: (%v,%d,%d) vs fresh (%v,%d,%d)",
			rEnd, rEv, rDraws, fEnd, fEv, fDraws)
	}
}

// TestFiberDoubleSuspendPanics checks the one-suspension-per-step guard.
func TestFiberDoubleSuspendPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "suspended twice") {
			t.Fatalf("got %v, want suspended-twice panic", r)
		}
	}()
	e := NewEngine(1)
	e.spawn("driver", func(p *Proc) { advance(p, 1) }) // force non-inline advances
	e.SpawnFiber("bad", func(f *Fiber) StepFunc {
		f.Advance(5, nil)
		f.Advance(5, nil) // second real suspension in one step
		return nil
	})
	e.Run()
}

// TestBroadcastAllocFree is the allocation guard for the collective wake
// hot path: steady-state Broadcast over parked fibers must not allocate.
func TestBroadcastAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	res := testing.Benchmark(BenchmarkBroadcastAllocs)
	if a := res.AllocsPerOp(); a > 0 {
		t.Errorf("Broadcast hot path allocates %d allocs/op, want 0", a)
	}
}
