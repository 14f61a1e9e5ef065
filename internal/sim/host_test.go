package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to come back to base: a
// body goroutine has signalled its exit by the time Run or Kill returns, but may not have been descheduled for the last time yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines, %d before the run: a goroutine of the run outlived it", n, base)
	}
}

// TestHostLifetime ends blocking bodies every way a run can end them and
// requires, each time, that no body goroutine is left and that Reset takes
// the engine back.
func TestHostLifetime(t *testing.T) {
	parked := func(e *Engine, name string) *Proc {
		return e.spawn(name, func(p *Proc) { park(p, "never woken") })
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"deadlock", func(t *testing.T, e *Engine) {
			parked(e, "a")
			parked(e, "b")
			e.spawn("c", func(p *Proc) { advance(p, 5) })
			var dl *DeadlockError
			if _, err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 2 {
				t.Fatalf("Run: %v, want a deadlock of 2", err)
			}
		}},
		{"body panic", func(t *testing.T, e *Engine) {
			parked(e, "bystander")
			e.spawn("bomb", func(p *Proc) {
				advance(p, 3)
				panic("boom")
			})
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), `process "bomb" panicked: boom`) {
					t.Errorf("recovered %v, want the body's panic re-raised by Run", r)
				}
			}()
			e.Run()
		}},
		{"step panic", func(t *testing.T, e *Engine) {
			parked(e, "bystander")
			e.SpawnFiber("bomb", func(f *Fiber) StepFunc {
				return f.Advance(3, func(*Fiber) StepFunc { panic("boom") })
			})
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want boom", r)
				}
			}()
			e.Run()
		}},
		{"kill and respawn", func(t *testing.T, e *Engine) {
			victim := parked(e, "victim")
			resumed := false
			e.At(10, func() {
				e.Kill(victim.Fiber)
				e.spawn("victim'", func(p *Proc) {
					advance(p, 5)
					resumed = true
				})
			})
			if end, err := e.Run(); err != nil || end != 15 || !resumed || !victim.Done() {
				t.Fatalf("Run: end %v, err %v, respawn ran %v, victim done %v", end, err, resumed, victim.Done())
			}
		}},
		{"abort before run", func(t *testing.T, e *Engine) {
			// Giving up before Run leaves nothing to unwind: a body
			// goroutine starts with the body's first step.
			parked(e, "a")
			parked(e, "b")
		}},
		{"killed before its first step", func(t *testing.T, e *Engine) {
			var victim *Proc
			e.At(0, func() { e.Kill(victim.Fiber) })
			victim = e.spawn("victim", func(p *Proc) { t.Error("killed body ran") })
			if _, err := e.Run(); err != nil || !victim.Done() {
				t.Fatalf("Run: %v, victim done %v", err, victim.Done())
			}
		}},
		{"window boundary", func(t *testing.T, e *Engine) {
			// A shard window leaves a blocked body parked for the next one;
			// the engine is not reusable until something ends it.
			p := e.spawn("sleeper", func(p *Proc) { advance(p, 100) })
			var panicked interface{}
			if runShard(e, 10, &panicked); panicked != nil || p.Done() {
				t.Fatalf("window: panic %v, done %v", panicked, p.Done())
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Reset accepted an engine with a live body")
					}
				}()
				e.Reset(1)
			}()
			if end, err := e.Run(); err != nil || end != 100 {
				t.Fatalf("Run: %v, %v", end, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			tc.run(t, e)
			settleGoroutines(t, base)
			e.Reset(2)
			// The reset engine is as good as new.
			var at Time
			e.spawn("after", func(p *Proc) {
				advance(p, 7)
				at = p.Now()
			})
			if end, err := e.Run(); err != nil || end != 7 || at != 7 {
				t.Fatalf("after Reset: end %v, body at %v, err %v", end, at, err)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestHostNestedBlocking runs blocking code in the middle of a blocking
// call's chain, both where the chain has not suspended yet (the body
// goroutine runs the step itself) and after a suspension (the engine side
// hands the code to the parked body), with the nested code suspending too.
func TestHostNestedBlocking(t *testing.T) {
	e := NewEngine(1)
	// An event inside an advance's span keeps it from going inline: the
	// advance to 13 and the nested one to 16 suspend, the others do not.
	e.At(5, func() {})
	e.At(14, func() {})
	var log []Time
	e.spawn("p", func(p *Proc) {
		note := func() {
			advance(p, 3)
			log = append(log, p.Now())
		}
		p.Await(func(next StepFunc) StepFunc {
			// Not suspended yet: runs on the body goroutine.
			return p.Blocking(note, func(f *Fiber) StepFunc {
				return f.Advance(10, p.Blocking(note, p.Blocking(note, next)))
			})
		})
		log = append(log, p.Now())
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{3, 16, 19, 19}; !reflect.DeepEqual(log, want) {
		t.Fatalf("nested blocking code ran at %v, want %v", log, want)
	}
}

// TestHostThrow ends a pending blocking call with a panic on the body
// goroutine, from a chain that has suspended and from one that has not,
// and lets the body carry on afterwards.
func TestHostThrow(t *testing.T) {
	e := NewEngine(1)
	var caught []interface{}
	var end Time
	e.spawn("p", func(p *Proc) {
		try := func(call func(next StepFunc) StepFunc) {
			defer func() { caught = append(caught, recover()) }()
			p.Await(call)
		}
		try(func(StepFunc) StepFunc { return p.Throw("inline") })
		try(func(StepFunc) StepFunc {
			return p.Fiber.Park("until thrown at", func(*Fiber) StepFunc { return p.Throw("parked") })
		})
		advance(p, 5)
		end = p.Now()
	})
	e.At(20, func() { e.WakeAt(20, e.fibs[0]) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []interface{}{"inline", "parked"}; !reflect.DeepEqual(caught, want) || end != 25 {
		t.Fatalf("caught %v, body finished at %v; want %v and 25", caught, end, want)
	}
}

// The blocking calls the tests make are Proc.Await of a Fiber primitive,
// as every blocking call of the runtime above is built.

func advance(p *Proc, d Time) {
	p.Await(func(next StepFunc) StepFunc { return p.Fiber.Advance(d, next) })
}

func advanceTo(p *Proc, t Time) {
	p.Await(func(next StepFunc) StepFunc { return p.Fiber.AdvanceTo(t, next) })
}

func flushDebt(p *Proc) {
	p.Await(func(next StepFunc) StepFunc { return p.Fiber.FlushDebt(next) })
}

func park(p *Proc, reason string) {
	p.Await(func(next StepFunc) StepFunc { return p.Fiber.Park(reason, next) })
}

func waitOn(q *WaitQueue, p *Proc, reason string) {
	p.Await(func(next StepFunc) StepFunc { return q.WaitFiber(p.Fiber, reason, next) })
}

func acquire(t *Token, p *Proc, reason string) {
	p.Await(func(next StepFunc) StepFunc { return t.FAcquire(p.Fiber, reason, next) })
}
