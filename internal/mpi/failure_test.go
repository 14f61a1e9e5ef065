package mpi

import (
	"errors"
	"fmt"
	"slices"
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
// through Protect, CheckFailed and Rebuild — across repeated runs and
// pooled-world reuse.
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
		o.end, o.events, o.committed = end, w.eng.Events(), st.committed
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
}

// TestCrashMidCollectiveNoLeak kills a rank while the world is deep in a
// storm of barriers and collective writes: every survivor is parked
// mid-collective at the kill instant. The step-function bodies recover
// through FProtect and FRebuild; the run must complete with no deadlock,
// no rank left parked and no demand interval left open.
func TestCrashMidCollectiveNoLeak(t *testing.T) {
	const procs, iters = 6, 60
	var file *File
	body := func(st *recShared) FiberMain {
		return func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			c := r.World()
			var step sim.StepFunc
			step = func(_ *sim.Fiber) sim.StepFunc {
				if st.committed >= st.iters {
					return nil
				}
				i := st.committed
				return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
					return file.FWriteAll(r, 1<<12, func(_ *sim.Fiber) sim.StepFunc {
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
			return c.FOpen(r, "ckpt", func(fl *File) sim.StepFunc {
				file = fl
				return start
			})
		}
	}
	run := func(st *recShared, crashes []sim.CrashEvent) (*World, sim.Time) {
		w := NewWorld(Config{Procs: procs, Seed: 3, Crashes: crashes})
		end, err := w.RunFibers(body(st))
		if err != nil {
			t.Fatalf("RunFibers: %v", err)
		}
		return w, end
	}
	_, base := run(newRecShared(iters, procs), nil)
	st := newRecShared(iters, procs)
	w, _ := run(st, []sim.CrashEvent{{At: base / 2, Target: 4, Restart: 60 * sim.Microsecond}})
	allFinished(t, w)
	if st.committed != iters {
		t.Fatalf("committed %d of %d", st.committed, iters)
	}
	if st.restarts[4] != 1 {
		t.Errorf("victim restarts = %d, want 1", st.restarts[4])
	}
	for i, rs := range w.ranks {
		if rs.ioDepth != 0 {
			t.Errorf("rank %d leaks ioDepth %d", i, rs.ioDepth)
		}
	}
}

// TestCrashSharedPointerFailover kills a rank inside one of its
// shared-file-pointer writes, exercising the token eviction path: the dead
// rank must not wedge the pointer token, the world must recover and
// finish, and neither the write the kill cut short nor the collective
// writes the failure unwinds on the survivors may leave a demand interval
// open.
func TestCrashSharedPointerFailover(t *testing.T) {
	const procs, iters = 4, 12
	var file *File
	var writeAt sim.Time // when rank 1 starts its middle write, crash-free
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
						if r.ID() == 1 && i == iters/2 && writeAt == 0 {
							writeAt = r.Now()
						}
						file.WriteShared(r, 1<<16)
						file.WriteAll(r, 1<<16)
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

	// The job has the file system to itself, through a shared bank, so
	// its writes signal their demand.
	fs := netmodel.LustreLike()
	run := func(st *recShared, crashes []sim.CrashEvent) (*World, *sim.Bank) {
		e, bank := sim.NewEngine(21), sim.NewBank(fs.Stripes, 1, sim.BankFairWC)
		w := NewWorld(Config{Procs: procs, Seed: 21, Engine: e, Bank: bank, FS: fs, Crashes: crashes})
		file = nil
		w.Start(body(st))
		if _, err := e.Run(); err != nil {
			t.Fatalf("engine run: %v", err)
		}
		return w, bank
	}
	run(newRecShared(iters, procs), nil)
	st := newRecShared(iters, procs)
	w, bank := run(st, []sim.CrashEvent{{At: writeAt + 1, Target: 1, Restart: 90 * sim.Microsecond}})
	allFinished(t, w)
	if st.committed != iters {
		t.Fatalf("committed %d of %d", st.committed, iters)
	}
	for i, rs := range w.ranks {
		if rs.ioDepth != 0 {
			t.Errorf("rank %d leaks ioDepth %d", i, rs.ioDepth)
		}
	}
	// With every interval closed, one more opens and closes on its own.
	end, demand := w.Makespan(), bank.JobDemand(0)
	bank.IOBegin(0, end)
	bank.IOEnd(0, end+1)
	if bank.JobDemand(0) != demand+1 {
		t.Error("a write the failure cut short left the job's demand interval open")
	}

	// Wherever in rank 1's middle write the crash lands, holding the
	// shared-pointer token or queued for it, the rebuilt world finishes: a
	// token left held by the dead rank deadlocks it.
	for d := sim.Time(1); d <= 2*(fs.SharedPointerLatency+fs.PerOpLatency); d += 50 * sim.Microsecond {
		st := newRecShared(iters, procs)
		w, _ := run(st, []sim.CrashEvent{{At: writeAt + d, Target: 1, Restart: 90 * sim.Microsecond}})
		allFinished(t, w)
		if st.committed != iters {
			t.Fatalf("crash at +%v: committed %d of %d", d, st.committed, iters)
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

// TestFailureErrorsNameTheirWorld: both world-revoking errors name the
// world when it has a name and leave it out when it has none.
func TestFailureErrorsNameTheirWorld(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{&RankFailedError{World: "jobA", Rank: 2, Epoch: 1}, "mpi: jobA: rank 2 failed (epoch 1)"},
		{&RankFailedError{Rank: 2, Epoch: 1}, "mpi: rank 2 failed (epoch 1)"},
		{&RankUnreachableError{World: "jobA", Src: 0, Dst: 1, Seq: 3, Attempts: 9, Epoch: 1},
			"mpi: jobA: rank 1 unreachable from rank 0 (seq 3, 9 attempts, epoch 1)"},
		{&RankUnreachableError{Src: 0, Dst: 1, Seq: 3, Attempts: 9, Epoch: 1},
			"mpi: rank 1 unreachable from rank 0 (seq 3, 9 attempts, epoch 1)"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%T: %q, want %q", c.err, got, c.want)
		}
	}
}

// TestRevocationFailsPendingTraffic: a crash completes every pending
// receive of the survivors at the kill instant, one that WaitAny waits on
// and one posted and not yet waited for, and drops the message its rank
// had queued, so its queue holds nothing of the failed attempt before the
// rebuild. The world then rebuilds and finishes.
func TestRevocationFailsPendingTraffic(t *testing.T) {
	crash := sim.CrashEvent{At: 100 * sim.Microsecond, Target: 3, Restart: 10 * sim.Microsecond}
	w := NewWorld(Config{Procs: 4, Seed: 1, Crashes: []sim.CrashEvent{crash}})
	var waitAnyErr error
	var failedAt sim.Time
	var queued bool
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.Incarnation() > 0 {
			r.Rebuild()
		}
		for {
			err := r.Protect(func() {
				if w.epoch == 0 {
					switch r.ID() {
					case 0:
						c.WaitAny(r, []*Request{c.Irecv(r, 1, 1), c.Irecv(r, 2, 1)})
					case 1:
						c.Send(r, 0, 9, 64, nil)
						c.Irecv(r, 2, 1)
					}
					r.Compute(200 * sim.Microsecond)
				}
				c.Barrier(r)
				r.CheckFailed()
			})
			if err == nil {
				return
			}
			if r.ID() == 0 {
				waitAnyErr, failedAt = err, r.Now()
				queued = r.rs.match.live > 0
			}
			r.Rebuild()
		}
	})
	allFinished(t, w)
	if fe, ok := waitAnyErr.(*RankFailedError); !ok || fe.Rank != crash.Target || failedAt != crash.At {
		t.Errorf("WaitAny failed with %v at %v, want rank %d's failure at %v", waitAnyErr, failedAt, crash.Target, crash.At)
	}
	if queued {
		t.Error("a message of the failed attempt is still queued after the revocation")
	}
}

// TestRebuildDiscardsInterruptedSplit: a crash lands while two of four
// members have registered for a Split, and a third registers while the
// world is revoked. After the rebuild a fresh Split builds its
// communicators from the new registrations alone.
func TestRebuildDiscardsInterruptedSplit(t *testing.T) {
	const procs = 4
	w := NewWorld(Config{Procs: procs, Seed: 1, Crashes: []sim.CrashEvent{{At: 50 * sim.Microsecond, Target: 3, Restart: 10 * sim.Microsecond}}})
	members := make([][]int, procs)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.Incarnation() > 0 {
			r.Rebuild()
		}
		for r.Protect(func() {
			if w.epoch == 0 && r.ID() >= 2 {
				r.Compute(100 * sim.Microsecond) // rank 3 dies in here
			}
			members[r.ID()] = c.Split(r, r.ID()%2, r.ID()).members
			c.Barrier(r)
			r.CheckFailed()
		}) != nil {
			r.Rebuild()
		}
	})
	allFinished(t, w)
	for me, got := range members {
		if want := []int{me % 2, me%2 + 2}; !slices.Equal(got, want) {
			t.Errorf("rank %d: post-rebuild Split gave members %v, want %v", me, got, want)
		}
	}
}

// TestFailureRecoveryIsScoped: Protect re-raises a panic that is not a
// world-revoking failure; on a revoked world CheckFailed fails a blocking
// body that has nothing else in flight, and a step-function body that
// meets the revocation outside FProtect panics with the failure.
func TestFailureRecoveryIsScoped(t *testing.T) {
	panicOf := func(run func()) (rec any) {
		defer func() { rec = recover() }()
		run()
		return nil
	}
	w := NewWorld(Config{Procs: 1, Seed: 1})
	rec := panicOf(func() { w.Run(func(r *Rank) { r.Protect(func() { panic("boom") }) }) })
	if !strings.Contains(fmt.Sprint(rec), "boom") {
		t.Errorf("Protect around a plain panic: recovered %v, want the panic re-raised", rec)
	}
	crash := []sim.CrashEvent{{At: sim.Microsecond, Target: 1, Restart: sim.Microsecond}}
	var err error
	mustRun(t, NewWorld(Config{Procs: 2, Seed: 1, Crashes: crash}), func(r *Rank) {
		r.Compute(2 * sim.Microsecond)
		if e := r.Protect(r.CheckFailed); r.ID() == 0 {
			err = e
		}
	})
	if _, ok := err.(*RankFailedError); !ok {
		t.Errorf("CheckFailed on a revoked world returned %v, want the *RankFailedError", err)
	}
	w = NewWorld(Config{Procs: 2, Seed: 1, Crashes: crash})
	rec = panicOf(func() {
		w.RunFibers(func(r *Rank, _ *sim.Fiber) sim.StepFunc { return r.FCompute(2*sim.Microsecond, r.FCheckFailed(nil)) })
	})
	if _, ok := rec.(*RankFailedError); !ok {
		t.Errorf("a step-function body outside FProtect met a revoked world: recovered %v, want the *RankFailedError", rec)
	}
}
