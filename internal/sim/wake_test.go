package sim

import "testing"

// TestWakerWakesOnce checks the dedup contract: however many completion
// sources call WakeAt while the target is parked, the target consumes
// exactly one resume event, at the first-scheduled instant.
func TestWakerWakesOnce(t *testing.T) {
	e := NewEngine(1)
	var wk Waker
	wakes := 0
	var wokenAt Time
	e.spawn("waiter", func(p *Proc) {
		wk.Arm(e, p.Fiber)
		park(p, "waiting")
		wk.Disarm()
		wakes++
		wokenAt = p.Now()
		// Survive past the instant of the duplicate WakeAt calls: a
		// second (erroneous) resume event would fire while blocked here
		// and corrupt this park.
		advance(p, 50)
	})
	e.At(10, func() {
		wk.WakeAt(12)
		wk.WakeAt(11) // later-scheduled, earlier instant: suppressed
		wk.WakeAt(30)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("woke %d times, want 1", wakes)
	}
	if wokenAt != 12 {
		t.Fatalf("woke at %v, want the first-scheduled instant 12", wokenAt)
	}
}

// TestWakerDisarmedIsNoop checks that completions arriving after the
// waiter moved on (disarmed waker) schedule nothing.
func TestWakerDisarmedIsNoop(t *testing.T) {
	e := NewEngine(3)
	var wk Waker
	e.spawn("waiter", func(p *Proc) {
		wk.Arm(e, p.Fiber)
		park(p, "waiting")
		wk.Disarm()
		advance(p, 100)
	})
	e.At(5, func() { wk.WakeAt(5) })
	e.At(20, func() { wk.WakeAt(20) }) // after disarm: must be a no-op
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWakerRearmAfterPool exercises the pooling cycle: a waker disarmed
// after one wait is immediately reusable for another target.
func TestWakerRearmAfterPool(t *testing.T) {
	e := NewEngine(9)
	var wk Waker
	order := make([]string, 0, 2)
	spawnWaiter := func(name string, at Time) {
		e.spawn(name, func(p *Proc) {
			advanceTo(p, at)
			wk.Arm(e, p.Fiber)
			park(p, "waiting")
			wk.Disarm()
			order = append(order, name)
		})
	}
	spawnWaiter("first", 0)
	spawnWaiter("second", 10)
	e.At(5, func() { wk.WakeAt(5) })
	e.At(15, func() { wk.WakeAt(15) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("wake order %v", order)
	}
}
