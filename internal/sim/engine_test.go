package sim

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// spawn creates a process executing the blocking body, numbered like a
// fiber from SpawnFiber. The runtime hosts its blocking bodies on fibers it
// spawns itself (Fiber.Host); the package's tests spawn them here.
func (e *Engine) spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{body: body}
	p.Fiber = e.SpawnFiber(name, p.start)
	p.Fiber.host = p
	return p
}

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine(1)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulingBeforeNowAfterInlineAdvancePanics checks the engine's own
// refusal of the past. After an inline advance the queue's latest pop lags
// behind now, so an instant between the two passes the queue's check and
// only AtAction can refuse it at the call.
func TestSchedulingBeforeNowAfterInlineAdvancePanics(t *testing.T) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		advance(p, 100) // inline: nothing else is queued
		defer func() {
			if recover() == nil {
				t.Error("At before now after an inline advance did not panic")
			}
		}()
		e.At(50, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResetWhileRunningPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset from a running event did not panic")
			}
		}()
		e.Reset(2)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvance(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.spawn("p", func(p *Proc) {
		advance(p, 100)
		at1 = p.Now()
		advance(p, 250)
		at2 = p.Now()
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at1 != 100 || at2 != 350 || end != 350 {
		t.Fatalf("at1=%v at2=%v end=%v", at1, at2, end)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		advance(p, 0)
		if p.Now() != 0 {
			t.Errorf("now = %v after Advance(0)", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Advance did not panic")
			}
		}()
		advance(p, -1)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine(1)
	e.spawn("p", func(p *Proc) {
		advanceTo(p, 500)
		if p.Now() != 500 {
			t.Errorf("now = %v, want 500", p.Now())
		}
		fired := e.Events()
		advanceTo(p, 100) // in the past: no-op
		advanceTo(p, 500) // now: no-op too, not a zero-length advance
		if p.Now() != 500 || e.Events() != fired {
			t.Errorf("now = %v and %d events after AdvanceTo at or before now, want 500 and none", p.Now(), e.Events()-fired)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < 3; step++ {
					advance(p, Time(10*(i+1)))
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("log length = %d, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving: %v vs %v", a, b)
		}
	}
}

func TestWaitQueueSignalOrder(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			advance(p, Time(i+1)) // deterministic arrival order
			waitOn(&q, p, "test")
			order = append(order, i)
		})
	}
	e.spawn("signaller", func(p *Proc) {
		advance(p, 100)
		for q.Signal(p.e) {
			advance(p, 1)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want FIFO [0 1 2]", order)
	}
}

func TestWaitQueueBroadcast(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	released := 0
	for i := 0; i < 5; i++ {
		e.spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			waitOn(&q, p, "test")
			released++
		})
	}
	e.spawn("b", func(p *Proc) {
		advance(p, 10)
		q.Broadcast(p.e)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if released != 5 {
		t.Fatalf("released = %d, want 5", released)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	// Twelve is the most blocked processes the report names in full. They
	// are spawned in reverse name order: the report sorts them by name, so
	// it reads the same however they are spread over shards.
	for i := 12; i > 0; i-- {
		e.spawn(fmt.Sprintf("stuck %02d", i), func(p *Proc) {
			waitOn(&q, p, "never signalled")
		})
	}
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 12 || !sort.StringsAreSorted(dl.Blocked) {
		t.Fatalf("blocked = %q, want twelve entries by name, none elided", dl.Blocked)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine(1)
	childRan := false
	e.spawn("parent", func(p *Proc) {
		advance(p, 50)
		p.e.spawn("child", func(c *Proc) {
			if c.Now() != 50 {
				t.Errorf("child started at %v, want 50", c.Now())
			}
			advance(c, 25)
			childRan = true
		})
		advance(p, 100)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !childRan || end != 150 {
		t.Fatalf("childRan=%v end=%v", childRan, end)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.spawn("bomb", func(p *Proc) {
		advance(p, 10)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("proc panic did not propagate out of Run")
		}
	}()
	e.Run() //nolint:errcheck // panics before returning
}

func TestPerProcRandIsDeterministicAndDistinct(t *testing.T) {
	draw := func(seed int64) [2]float64 {
		e := NewEngine(seed)
		var out [2]float64
		e.spawn("a", func(p *Proc) { out[0] = p.Rand().uniform() })
		e.spawn("b", func(p *Proc) { out[1] = p.Rand().uniform() })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	x, y := draw(42), draw(42)
	if x != y {
		t.Fatalf("same seed differs: %v vs %v", x, y)
	}
	if x[0] == x[1] {
		t.Fatalf("distinct procs drew identical values: %v", x)
	}
	z := draw(43)
	if z == x {
		t.Fatalf("different seeds produced identical draws")
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 5 {
		t.Fatalf("Events = %d, want 5", e.Events())
	}
}

// Property: for any set of non-negative delays, a proc advancing through
// them ends at their sum.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(1)
		var want Time
		for _, r := range raw {
			want += Time(r)
		}
		var end Time
		e.spawn("p", func(p *Proc) {
			for _, r := range raw {
				advance(p, Time(r))
			}
			end = p.Now()
		})
		if _, err := e.Run(); err != nil {
			return false
		}
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled at arbitrary times fire in nondecreasing
// time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine(1)
		var fired []Time
		for _, r := range raw {
			d := Time(r)
			e.At(d, func() { fired = append(fired, d) })
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1.5, 12.25} {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 || Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Fatal("Max/Min broken")
	}
}
