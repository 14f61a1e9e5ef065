package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// recShared is the test bodies' "stable storage": committed is the
// globally committed iteration (every rank writes the same value after
// the commit barrier), the counters record per-rank recovery activity.
type recShared struct {
	iters     int
	committed int
	restarts  []int
	fails     []int
}

func newRecShared(iters, procs int) *recShared {
	return &recShared{iters: iters, restarts: make([]int, procs), fails: make([]int, procs)}
}

func sumI64(a, b interface{}) interface{} { return a.(int64) + b.(int64) }

// recProcBody is a checkpoint-aware iterative body: compute, allreduce,
// then a commit barrier; a crash anywhere sends every rank through
// Protect/Rebuild and replay resumes from the last committed iteration.
func recProcBody(st *recShared) func(r *Rank) {
	return func(r *Rank) {
		c := r.World()
		if r.Incarnation() > 0 {
			st.restarts[r.ID()]++
			r.Rebuild()
		}
		for {
			err := r.Protect(func() {
				for st.committed < st.iters {
					i := st.committed
					r.Compute(40 * sim.Microsecond)
					c.Allreduce(r, Part{Bytes: 8, Data: int64(1)}, sumI64, nil)
					c.Barrier(r)
					r.CheckFailed()
					st.committed = i + 1
				}
			})
			if err == nil {
				return
			}
			if _, ok := err.(*RankFailedError); !ok {
				panic(err)
			}
			st.fails[r.ID()]++
			r.Rebuild()
		}
	}
}

// recFiberBody is recProcBody ported to the continuation representation,
// operation for operation.
func recFiberBody(st *recShared) FiberMain {
	return func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		var step sim.StepFunc
		step = func(_ *sim.Fiber) sim.StepFunc {
			if st.committed >= st.iters {
				return nil
			}
			i := st.committed
			return r.FCompute(40*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
				return c.FAllreduce(r, Part{Bytes: 8, Data: int64(1)}, sumI64, nil, func(Part) sim.StepFunc {
					return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
						return r.FCheckFailed(func(_ *sim.Fiber) sim.StepFunc {
							st.committed = i + 1
							return step
						})
					})
				})
			})
		}
		var onFail func(error) sim.StepFunc
		onFail = func(error) sim.StepFunc {
			st.fails[r.ID()]++
			return r.FRebuild(r.FProtect(step, onFail))
		}
		start := r.FProtect(step, onFail)
		if r.Incarnation() > 0 {
			st.restarts[r.ID()]++
			return r.FRebuild(start)
		}
		return start
	}
}

func allFinished(t *testing.T, w *World) {
	t.Helper()
	for i, rs := range w.ranks {
		if !rs.finished() {
			t.Errorf("rank %d body never finished", i)
		}
	}
}

// baselineMakespan runs the body crash-free to size crash instants.
func baselineMakespan(t *testing.T, procs, iters int) sim.Time {
	t.Helper()
	st := newRecShared(iters, procs)
	w := NewWorld(Config{Procs: procs, Seed: 11})
	end := mustRun(t, w, recProcBody(st))
	if st.committed != iters {
		t.Fatalf("crash-free run committed %d of %d", st.committed, iters)
	}
	return end
}

func TestCrashRecoveryCompletes(t *testing.T) {
	const procs, iters = 4, 16
	base := baselineMakespan(t, procs, iters)
	crashes := []sim.CrashEvent{{At: base / 3, Target: 2, Restart: 100 * sim.Microsecond}}

	st := newRecShared(iters, procs)
	w := NewWorld(Config{Procs: procs, Seed: 11, Crashes: crashes})
	end := mustRun(t, w, recProcBody(st))
	allFinished(t, w)
	if st.committed != iters {
		t.Fatalf("committed %d of %d after recovery", st.committed, iters)
	}
	if st.restarts[2] != 1 {
		t.Errorf("victim restarts = %d, want 1", st.restarts[2])
	}
	if end <= base {
		t.Errorf("crashed makespan %v not above crash-free %v", end, base)
	}
	for i, rs := range w.ranks {
		if rs.ioDepth != 0 {
			t.Errorf("rank %d leaks ioDepth %d", i, rs.ioDepth)
		}
	}
}

// TestCrashReplayDeterministic asserts the replay contract: a fixed crash
// campaign produces the identical trajectory — end time and event count,
// through Protect, CheckFailed and Rebuild and their F forms — across
// repeated runs, pooled-world reuse, and blocking and step-function
// bodies. (Crash campaigns refuse a Tracer, so there is no busy time to
// compare.)
func TestCrashReplayDeterministic(t *testing.T) {
	const procs, iters = 4, 16
	base := baselineMakespan(t, procs, iters)
	crashes := []sim.CrashEvent{
		{At: base / 4, Target: 1, Restart: 80 * sim.Microsecond},
		{At: base / 2, Target: 3, Restart: 120 * sim.Microsecond},
	}
	cfg := Config{Procs: procs, Seed: 11, Crashes: crashes}

	type outcome struct {
		end       sim.Time
		events    uint64
		committed int
		restarts  [4]int
		fails     [4]int
	}
	runProc := func() outcome {
		st := newRecShared(iters, procs)
		w := NewWorld(cfg)
		end := mustRun(t, w, recProcBody(st))
		allFinished(t, w)
		var o outcome
		o.end, o.events, o.committed = end, w.Engine().Events(), st.committed
		w.Release()
		copy(o.restarts[:], st.restarts)
		copy(o.fails[:], st.fails)
		return o
	}
	runFiber := func() outcome {
		st := newRecShared(iters, procs)
		w := NewWorld(cfg)
		end, err := w.RunFibers(recFiberBody(st))
		if err != nil {
			t.Fatalf("RunFibers: %v", err)
		}
		allFinished(t, w)
		var o outcome
		o.end, o.events, o.committed = end, w.Engine().Events(), st.committed
		w.Release()
		copy(o.restarts[:], st.restarts)
		copy(o.fails[:], st.fails)
		return o
	}

	first := runProc()
	if first.committed != iters {
		t.Fatalf("committed %d of %d", first.committed, iters)
	}
	if got := runProc(); got != first {
		t.Errorf("pooled-reuse replay diverged: %+v vs %+v", got, first)
	}
	if got := runFiber(); got != first {
		t.Errorf("fiber replay diverged: %+v vs %+v", got, first)
	}
	if got := runFiber(); got != first {
		t.Errorf("pooled fiber replay diverged: %+v vs %+v", got, first)
	}
}

// TestCrashMidCollectiveNoLeak kills a rank while the world is deep in a
// barrier storm: every survivor is parked mid-collective at the kill
// instant. The run must complete with no deadlock and no rank left
// parked, under both representations.
func TestCrashMidCollectiveNoLeak(t *testing.T) {
	const procs, iters = 6, 60
	// Barrier-only body: almost all virtual time is spent inside
	// collectives, so a mid-run crash lands mid-barrier.
	procBody := func(st *recShared) func(r *Rank) {
		return func(r *Rank) {
			c := r.World()
			if r.Incarnation() > 0 {
				st.restarts[r.ID()]++
				r.Rebuild()
			}
			for {
				err := r.Protect(func() {
					for st.committed < st.iters {
						i := st.committed
						c.Barrier(r)
						c.Barrier(r)
						r.CheckFailed()
						st.committed = i + 1
					}
				})
				if err == nil {
					return
				}
				st.fails[r.ID()]++
				r.Rebuild()
			}
		}
	}
	fiberBody := func(st *recShared) FiberMain {
		return func(r *Rank, f *sim.Fiber) sim.StepFunc {
			c := r.World()
			var step sim.StepFunc
			step = func(_ *sim.Fiber) sim.StepFunc {
				if st.committed >= st.iters {
					return nil
				}
				i := st.committed
				return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
					return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
						return r.FCheckFailed(func(_ *sim.Fiber) sim.StepFunc {
							st.committed = i + 1
							return step
						})
					})
				})
			}
			var onFail func(error) sim.StepFunc
			onFail = func(error) sim.StepFunc {
				st.fails[r.ID()]++
				return r.FRebuild(r.FProtect(step, onFail))
			}
			start := r.FProtect(step, onFail)
			if r.Incarnation() > 0 {
				st.restarts[r.ID()]++
				return r.FRebuild(start)
			}
			return start
		}
	}

	st0 := newRecShared(iters, procs)
	w0 := NewWorld(Config{Procs: procs, Seed: 3})
	base := mustRun(t, w0, procBody(st0))
	crashes := []sim.CrashEvent{{At: base / 2, Target: 4, Restart: 60 * sim.Microsecond}}

	t.Run("proc", func(t *testing.T) {
		st := newRecShared(iters, procs)
		w := NewWorld(Config{Procs: procs, Seed: 3, Crashes: crashes})
		mustRun(t, w, procBody(st))
		allFinished(t, w)
		if st.committed != iters {
			t.Fatalf("committed %d of %d", st.committed, iters)
		}
		if st.restarts[4] != 1 {
			t.Errorf("victim restarts = %d, want 1", st.restarts[4])
		}
	})
	t.Run("fiber", func(t *testing.T) {
		st := newRecShared(iters, procs)
		w := NewWorld(Config{Procs: procs, Seed: 3, Crashes: crashes})
		if _, err := w.RunFibers(fiberBody(st)); err != nil {
			t.Fatalf("RunFibers: %v", err)
		}
		allFinished(t, w)
		if st.committed != iters {
			t.Fatalf("committed %d of %d", st.committed, iters)
		}
	})
}

// TestCrashSharedPointerFailover kills a rank during a shared-file-pointer
// write phase, exercising the token eviction path: the dead rank must not
// wedge the pointer token, and the world must recover and finish.
func TestCrashSharedPointerFailover(t *testing.T) {
	const procs, iters = 4, 12
	var file *File
	body := func(st *recShared) func(r *Rank) {
		return func(r *Rank) {
			c := r.World()
			if r.Incarnation() > 0 {
				st.restarts[r.ID()]++
				r.Rebuild()
			} else {
				f := c.Open(r, "ckpt")
				file = f
			}
			for {
				err := r.Protect(func() {
					for st.committed < st.iters {
						i := st.committed
						file.WriteShared(r, 1<<16)
						c.Barrier(r)
						r.CheckFailed()
						st.committed = i + 1
					}
				})
				if err == nil {
					return
				}
				st.fails[r.ID()]++
				r.Rebuild()
			}
		}
	}

	st0 := newRecShared(iters, procs)
	w0 := NewWorld(Config{Procs: procs, Seed: 21})
	file = nil
	base := mustRun(t, w0, body(st0))
	crashes := []sim.CrashEvent{{At: base / 2, Target: 1, Restart: 90 * sim.Microsecond}}

	st := newRecShared(iters, procs)
	w := NewWorld(Config{Procs: procs, Seed: 21, Crashes: crashes})
	file = nil
	mustRun(t, w, body(st))
	allFinished(t, w)
	if st.committed != iters {
		t.Fatalf("committed %d of %d", st.committed, iters)
	}
	for i, rs := range w.ranks {
		if rs.ioDepth != 0 {
			t.Errorf("rank %d leaks ioDepth %d", i, rs.ioDepth)
		}
	}
}

// TestCrashCoScheduledNeighborUntouched runs two worlds on one engine and
// crashes a rank of the first: the neighbor job's trajectory must be
// bit-identical to the crash-free co-schedule.
func TestCrashCoScheduledNeighborUntouched(t *testing.T) {
	const procs, iters = 4, 10
	neighbor := func(r *Rank) {
		c := r.World()
		for i := 0; i < 8; i++ {
			r.Compute(30 * sim.Microsecond)
			c.Allreduce(r, Part{Bytes: 8, Data: int64(1)}, sumI64, nil)
		}
	}
	run := func(crashes []sim.CrashEvent) (aEnd, bEnd sim.Time, st *recShared) {
		e := sim.NewEngine(77)
		st = newRecShared(iters, procs)
		wA := NewWorld(Config{Procs: procs, Seed: 5, Engine: e, Name: "jobA", Crashes: crashes})
		wB := NewWorld(Config{Procs: procs, Seed: 9, Engine: e, Name: "jobB"})
		wA.Start(recProcBody(st))
		wB.Start(neighbor)
		if _, err := e.Run(); err != nil {
			t.Fatalf("engine run: %v", err)
		}
		allFinished(t, wA)
		allFinished(t, wB)
		return wA.Makespan(), wB.Makespan(), st
	}

	aClean, bClean, _ := run(nil)
	crashes := []sim.CrashEvent{{At: aClean / 3, Target: 0, Restart: 70 * sim.Microsecond}}
	aCrash, bCrash, st := run(crashes)
	if st.committed != iters {
		t.Fatalf("job A committed %d of %d", st.committed, iters)
	}
	if st.restarts[0] != 1 {
		t.Errorf("victim restarts = %d, want 1", st.restarts[0])
	}
	if aCrash <= aClean {
		t.Errorf("job A makespan %v not above crash-free %v", aCrash, aClean)
	}
	if bCrash != bClean {
		t.Errorf("neighbor job perturbed by foreign crash: %v vs %v", bCrash, bClean)
	}
}

// TestCrashAfterCompletionDropped schedules a crash beyond the job's end:
// committed output is never revoked, so the run must be identical to a
// crash-free one.
func TestCrashAfterCompletionDropped(t *testing.T) {
	const procs, iters = 4, 8
	base := baselineMakespan(t, procs, iters)

	st := newRecShared(iters, procs)
	w := NewWorld(Config{Procs: procs, Seed: 11, Crashes: []sim.CrashEvent{
		{At: base + sim.Millisecond, Target: 0, Restart: 50 * sim.Microsecond},
	}})
	mustRun(t, w, recProcBody(st))
	allFinished(t, w)
	if st.restarts[0] != 0 || st.fails[0] != 0 {
		t.Errorf("late crash not dropped: restarts=%v fails=%v", st.restarts, st.fails)
	}
	if st.committed != iters {
		t.Fatalf("committed %d of %d", st.committed, iters)
	}
}

// validateCase is one input check of Config.Validate.
type validateCase struct {
	name  string
	cfg   Config
	want  string // error substring; empty means valid
	shard bool   // the error is a *CannotShardError
}

// checkValidate runs each case through Config.Validate: a refusal names
// its field, and a feature the parallel mode cannot run is a
// *CannotShardError.
func checkValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			var cse *CannotShardError
			switch {
			case c.want == "" && err != nil:
				t.Errorf("Validate: %v, want nil", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("Validate: %v, want an error naming %q", err, c.want)
			case c.shard != errors.As(err, &cse):
				t.Errorf("Validate: %v (%T), CannotShardError %v", err, err, c.shard)
			}
		})
	}
}

// TestConfigValidate: a world needs ranks, and NewWorld panics with
// Validate's error.
func TestConfigValidate(t *testing.T) {
	checkValidate(t, []validateCase{{"no ranks", Config{}, "Procs 0", false}})
	bad := Config{Procs: 2, Crashes: []sim.CrashEvent{{At: 1, Target: 2}}}
	defer func() {
		want := bad.Validate()
		if err, ok := recover().(error); !ok || err.Error() != want.Error() {
			t.Errorf("NewWorld panicked with %v, want Validate's error %v", err, want)
		}
	}()
	NewWorld(bad)
}

// TestCrashConfigValidation covers Validate's crash-campaign checks; a
// traced crash campaign is accepted.
func TestCrashConfigValidation(t *testing.T) {
	checkValidate(t, []validateCase{
		{"crash beyond the world", Config{Procs: 2, Crashes: []sim.CrashEvent{{At: 1, Target: 2}}}, "Crashes[0] targets rank 2 of 2", false},
		{"crash at a negative time", Config{Procs: 2, Crashes: []sim.CrashEvent{{At: -1, Target: 0}}}, "Crashes[0] has negative time", false},
		{"crashes with tracing", Config{Procs: 2, Tracer: nopTracer{}, Crashes: []sim.CrashEvent{{At: 1, Target: 0}}}, "", false},
	})
}

// TestFaultWindowTargets: Validate refuses slowdown and stripe windows
// aimed at a rank or stripe the world does not have, naming the index,
// instead of dropping them; empty entries past the end stay legal.
func TestFaultWindowTargets(t *testing.T) {
	fs := netmodel.LustreLike()
	fs.Stripes = 2
	slow := []sim.FaultWindow{{Start: 10, End: 20, Factor: 2}}
	outage := []sim.StripeFault{{Start: 10, End: 20}}
	checkValidate(t, []validateCase{
		{"rank in range", Config{Procs: 2, RankFaults: [][]sim.FaultWindow{nil, slow}}, "", false},
		{"rank beyond the world", Config{Procs: 2, RankFaults: [][]sim.FaultWindow{nil, nil, slow}}, "RankFaults[2] targets rank 2 of 2", false},
		{"empty rank entry beyond the world", Config{Procs: 2, RankFaults: [][]sim.FaultWindow{nil, nil, {}}}, "", false},
		{"stripe in range", Config{Procs: 2, FS: fs, StripeFaults: [][]sim.StripeFault{nil, outage}}, "", false},
		{"stripe beyond the bank", Config{Procs: 2, FS: fs, StripeFaults: [][]sim.StripeFault{nil, nil, outage}}, "StripeFaults[2] targets stripe 2 of 2", false},
		{"empty stripe entry beyond the bank", Config{Procs: 2, FS: fs, StripeFaults: [][]sim.StripeFault{nil, nil, nil}}, "", false},
	})
}

// TestMsgFaultConfigValidation: message-fault campaigns refuse malformed
// tables with an error naming the field, and accept a tracer.
func TestMsgFaultConfigValidation(t *testing.T) {
	checkValidate(t, []validateCase{
		{"message faults with tracing", Config{Procs: 2, Tracer: nopTracer{}, MsgFaults: &netmodel.MsgFaults{DropSeed: 1, DropRate: 0.1}}, "", false},
		{"drop rate above one", Config{Procs: 2, MsgFaults: &netmodel.MsgFaults{DropRate: 1.5}}, "MsgFaults: netmodel: message drop rate 1.5", false},
	})
}

// TestShardedWorldGuards pins the configurations parallel mode refuses.
func TestShardedWorldGuards(t *testing.T) {
	checkValidate(t, []validateCase{
		{"sharded on a shared engine", Config{Procs: 2, Shards: 2, Engine: sim.NewEngine(1)}, "Shards with a shared Engine", false},
		{"sharded tracing", Config{Procs: 2, Shards: 2, Tracer: nopTracer{}}, "tracing cannot run", true},
		{"sharded crashes", Config{Procs: 2, Shards: 2, Crashes: []sim.CrashEvent{{At: 1, Target: 0}}}, "crash campaigns cannot run", true},
		{"sharded message faults", Config{Procs: 4, Shards: 2, MsgFaults: &netmodel.MsgFaults{DropSeed: 1, DropRate: 0.1}}, "message-fault campaigns cannot run", true},
	})
}

type nopTracer struct{}

func (nopTracer) Span(rank int, category, label string, start, end sim.Time) {}
