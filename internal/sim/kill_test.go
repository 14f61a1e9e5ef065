package sim

import "testing"

// TestKillParkedProc kills a process blocked on a wait queue: the run
// must complete without a deadlock report and without executing the
// victim's post-park code.
func TestKillParkedProc(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	resumed := false
	victim := e.spawn("victim", func(p *Proc) {
		waitOn(&q, p, "test wait")
		resumed = true
	})
	e.At(50, func() {
		q.Remove(victim.Fiber)
		e.Kill(victim.Fiber)
	})
	e.spawn("bystander", func(p *Proc) { advance(p, 100) })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resumed {
		t.Error("killed process resumed past its park")
	}
	if !victim.Done() {
		t.Error("victim not marked done")
	}
	if end != 100 {
		t.Errorf("end = %v, want 100", end)
	}
}

// TestKillWithStaleWake kills a process that already has a scheduled wake
// event: the stale resume must be popped and counted as fired, advancing
// the clock to its instant, identically to the fiber representation.
func TestKillWithStaleWake(t *testing.T) {
	run := func(fiber bool) (Time, uint64) {
		e := NewEngine(1)
		if fiber {
			var fb *Fiber
			fb = e.SpawnFiber("victim", func(f *Fiber) StepFunc {
				return f.Park("test wait", func(*Fiber) StepFunc {
					t.Error("killed fiber resumed")
					return nil
				})
			})
			e.At(10, func() { e.WakeAt(100, fb) })
			e.At(50, func() { e.Kill(fb) })
		} else {
			var pr *Proc
			pr = e.spawn("victim", func(p *Proc) {
				park(p, "test wait")
				t.Error("killed process resumed")
			})
			e.At(10, func() { e.WakeAt(100, pr.Fiber) })
			e.At(50, func() { e.Kill(pr.Fiber) })
		}
		end, err := e.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return end, e.Events()
	}
	endP, firedP := run(false)
	endF, firedF := run(true)
	if endP != 100 {
		t.Errorf("proc end = %v, want 100 (stale wake must still pop)", endP)
	}
	if endP != endF || firedP != firedF {
		t.Errorf("representations diverge: proc (end %v, %d events) vs fiber (end %v, %d events)",
			endP, firedP, endF, firedF)
	}
}

// TestKillDrivingProcDefersToYield kills the process whose body is running
// (a body killing itself): the unwind happens at its next blocking call,
// with no extra event.
func TestKillDrivingProcDefersToYield(t *testing.T) {
	e := NewEngine(1)
	reachedKill := false
	passedYield := false
	var self *Proc
	self = e.spawn("self-crash", func(p *Proc) {
		advance(p, 10)
		e.Kill(self.Fiber) // the body kills itself: deferred
		reachedKill = true
		advance(p, 10) // unwinds here
		passedYield = true
	})
	e.spawn("bystander", func(p *Proc) { advance(p, 30) })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reachedKill {
		t.Error("self-kill did not defer: code after Kill never ran")
	}
	if passedYield {
		t.Error("killed process survived its yield")
	}
	if !self.Done() {
		t.Error("self-killed process not done")
	}
}

// TestKillRespawnSharedIDs kills and respawns across both representations:
// the respawned runnable must draw the same engine-wide id under either,
// which is what keeps restart random streams representation-neutral.
func TestKillRespawnSharedIDs(t *testing.T) {
	run := func(fiber bool) (victimID, bystanderID, respawnID int, end Time) {
		e := NewEngine(1)
		var victim, bystander, respawn *Fiber
		if fiber {
			victim = e.SpawnFiber("victim", func(f *Fiber) StepFunc {
				return f.Advance(100, func(*Fiber) StepFunc { return nil })
			})
			bystander = e.SpawnFiber("bystander", func(f *Fiber) StepFunc {
				return f.Advance(200, func(*Fiber) StepFunc { return nil })
			})
		} else {
			victim = e.spawn("victim", func(p *Proc) { advance(p, 100) }).Fiber
			bystander = e.spawn("bystander", func(p *Proc) { advance(p, 200) }).Fiber
		}
		e.At(50, func() {
			e.Kill(victim)
			e.At(80, func() {
				if fiber {
					respawn = e.SpawnFiber("victim'", func(f *Fiber) StepFunc {
						return f.Advance(40, func(*Fiber) StepFunc { return nil })
					})
				} else {
					respawn = e.spawn("victim'", func(p *Proc) { advance(p, 40) }).Fiber
				}
			})
		})
		var err error
		end, err = e.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return victim.id, bystander.id, respawn.id, end
	}
	v1, b1, r1, e1 := run(false)
	v2, b2, r2, e2 := run(true)
	if v1 != v2 || b1 != b2 || r1 != r2 {
		t.Errorf("id assignment diverges: proc (%d,%d,%d) vs fiber (%d,%d,%d)", v1, b1, r1, v2, b2, r2)
	}
	if r1 != 2 {
		t.Errorf("respawn id = %d, want 2 (next shared id)", r1)
	}
	if e1 != e2 {
		t.Errorf("end diverges: %v vs %v", e1, e2)
	}
}

// TestKillFinishedIsNoop kills an already-finished runnable.
func TestKillFinishedIsNoop(t *testing.T) {
	e := NewEngine(1)
	p := e.spawn("quick", func(p *Proc) { advance(p, 5) })
	e.At(10, func() { e.Kill(p.Fiber) })
	e.spawn("bystander", func(p *Proc) { advance(p, 20) })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 20 {
		t.Errorf("end = %v, want 20", end)
	}
}

// TestKillTokenHolder kills a process while it holds a resource token:
// Evict hands the token to the next waiter at the kill instant.
func TestKillTokenHolder(t *testing.T) {
	e := NewEngine(1)
	var tok Token
	var acquiredAt Time
	holder := e.spawn("holder", func(p *Proc) {
		acquire(&tok, p, "token")
		advance(p, 1000) // would hold until 1000
		tok.Release(p.Fiber)
	})
	e.spawn("waiter", func(p *Proc) {
		advance(p, 10)
		acquire(&tok, p, "token")
		acquiredAt = p.Now()
		tok.Release(p.Fiber)
	})
	e.At(50, func() {
		tok.Evict(holder.Fiber, e)
		e.Kill(holder.Fiber)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acquiredAt != 50 {
		t.Errorf("waiter acquired at %v, want 50 (on eviction)", acquiredAt)
	}
}
