package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/ipic3d"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// decJob builds a decoupled iPIC3D particle-I/O job (Fig. 8's Decoupling
// variant) for co-scheduling tests. heavy inflates the job's output
// volume so it hogs the shared bank.
func decJob(procs int, seed int64, heavy bool) Job {
	c := ipic3d.DefaultConfig(procs)
	c.Seed = seed
	if heavy {
		c.SaveFraction = 0.5
	}
	return Job{Start: func(base mpi.Config) (*mpi.World, error) {
		j, err := ipic3d.StartIO(c, ipic3d.IODecoupled, base)
		if err != nil {
			return nil, err
		}
		return j.World(), nil
	}}
}

// TestSingleJobClusterMatchesStandalone: a one-job FCFS cluster is the
// same simulation as the standalone single-world run — same engine seed,
// same bank behavior — so the job's completion time must be identical.
func TestSingleJobClusterMatchesStandalone(t *testing.T) {
	c := ipic3d.DefaultConfig(16)
	c.Seed = 3
	want, err := ipic3d.RunIO(c, ipic3d.IODecoupled)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Seed: c.Seed, Jobs: []Job{decJob(16, 3, false)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobTimes[0] != want.Time {
		t.Errorf("cluster job time %v != standalone %v", res.JobTimes[0], want.Time)
	}
	if res.Makespan != want.Time {
		t.Errorf("cluster makespan %v != standalone %v", res.Makespan, want.Time)
	}
}

// TestClusterDeterministicAcrossRunsAndRepresentations: repeated runs of
// the same configuration — including engine-pool reuse — produce
// identical per-job trajectories.
func TestClusterDeterministicAcrossRunsAndRepresentations(t *testing.T) {
	build := func() Config {
		return Config{
			Seed:    7,
			Stripes: 2,
			Jobs: []Job{
				decJob(16, 11, true),
				decJob(16, 12, false),
				decJob(8, 13, false),
			},
		}
	}
	first, err := runUnder(build(), sim.BankFair)
	if err != nil {
		t.Fatal(err)
	}
	// A different-shaped run in between exercises engine Reset reuse.
	if _, err := Run(Config{Seed: 1, Jobs: []Job{decJob(8, 5, false)}}); err != nil {
		t.Fatal(err)
	}
	again, err := runUnder(build(), sim.BankFair)
	if err != nil {
		t.Fatal(err)
	}
	if first.Makespan != again.Makespan {
		t.Errorf("makespan drifted across pooled reruns: %v != %v", first.Makespan, again.Makespan)
	}
	for i := range first.JobTimes {
		if first.JobTimes[i] != again.JobTimes[i] {
			t.Errorf("job %d time drifted across pooled reruns: %v != %v", i, first.JobTimes[i], again.JobTimes[i])
		}
	}
}

// writerJob is a minimal I/O-bound job for policy tests: procs ranks
// each issue writes independent writes of bytes, separated by gap of
// compute — sustained bank pressure whose contention window is easy to
// control.
func writerJob(procs, writes int, bytes int64, gap sim.Time, seed int64) Job {
	return Job{Start: func(base mpi.Config) (*mpi.World, error) {
		base.Procs = procs
		base.Seed = seed
		w := mpi.NewWorld(base)
		w.Start(func(r *mpi.Rank) {
			f := r.World().Open(r, "out.dat")
			for i := 0; i < writes; i++ {
				if gap > 0 {
					r.Compute(gap)
				}
				f.WriteAt(r, bytes)
			}
		})
		return w, nil
	}}
}

// TestFairShareProtectsLightJob: a multi-writer hog books the single
// stripe's timeline well ahead; under FCFS a light job queues behind that
// backlog, under fair-share the hog's bookings are paced with holes the
// light job's writes slot into, so the light job finishes strictly
// earlier (and the hog, being throttled only while contended, no earlier
// than before).
func TestFairShareProtectsLightJob(t *testing.T) {
	run := func(policy sim.BankPolicy) Result {
		res, err := runUnder(Config{
			Seed:    5,
			Stripes: 1,
			Jobs: []Job{
				writerJob(4, 100, 64<<20, 0, 21),                 // hog: ~4 writes always in flight
				writerJob(1, 20, 8<<20, 100*sim.Millisecond, 22), // light
			},
		}, policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs := run(sim.BankFCFS)
	fair := run(sim.BankFair)
	if fair.JobTimes[1] >= fcfs.JobTimes[1] {
		t.Errorf("fair-share did not protect the light job: fair %v, fcfs %v", fair.JobTimes[1], fcfs.JobTimes[1])
	}
	if fair.JobTimes[0] < fcfs.JobTimes[0] {
		t.Errorf("fair-share sped up the hog: fair %v, fcfs %v", fair.JobTimes[0], fcfs.JobTimes[0])
	}
}

// TestPriorityWeightsShiftService: two identical I/O-bound jobs on a
// narrow bank; under the priority policy the heavily-weighted job must
// finish first, and earlier than it does under equal shares.
func TestPriorityWeightsShiftService(t *testing.T) {
	jobs := func() []Job {
		a := writerJob(2, 60, 32<<20, 0, 31)
		b := writerJob(2, 60, 32<<20, 0, 31)
		a.Weight = 8
		a.Name = "gold"
		b.Name = "best-effort"
		return []Job{a, b}
	}
	prio, err := runUnder(Config{Seed: 9, Stripes: 1, Jobs: jobs()}, sim.BankWeighted)
	if err != nil {
		t.Fatal(err)
	}
	if prio.JobTimes[0] >= prio.JobTimes[1] {
		t.Errorf("weight-8 job finished at %v, not before its weight-1 twin at %v", prio.JobTimes[0], prio.JobTimes[1])
	}
	fair, err := runUnder(Config{Seed: 9, Stripes: 1, Jobs: jobs()}, sim.BankFair)
	if err != nil {
		t.Fatal(err)
	}
	if prio.JobTimes[0] >= fair.JobTimes[0] {
		t.Errorf("priority weight did not help: %v under priority vs %v under fair", prio.JobTimes[0], fair.JobTimes[0])
	}
}

// TestDeadlockNamesWorld: a blocked rank in a co-scheduled job shows up
// in the deadlock report under its world-prefixed name.
func TestDeadlockNamesWorld(t *testing.T) {
	stuck := Job{Name: "stuck", Start: func(base mpi.Config) (*mpi.World, error) {
		base.Procs = 2
		base.Seed = 1
		w := mpi.NewWorld(base)
		w.Start(func(r *mpi.Rank) {
			if r.ID() == 0 {
				r.World().Recv(r, 1, 7) // never sent
			}
		})
		return w, nil
	}}
	_, err := Run(Config{Seed: 2, Jobs: []Job{decJob(8, 4, false), stuck}})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected a deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "stuck/rank0") {
		t.Errorf("deadlock report does not name the world: %v", err)
	}
}

// TestStartFailureUnwinds: a job failing to start must not poison the
// engine or leak the already-spawned jobs' goroutines; the next run on a
// fresh engine must still work.
func TestStartFailureUnwinds(t *testing.T) {
	boom := Job{Start: func(base mpi.Config) (*mpi.World, error) {
		return nil, errors.New("boom")
	}}
	_, err := Run(Config{Seed: 3, Jobs: []Job{decJob(8, 6, false), boom}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the job error, got %v", err)
	}
	if _, err := Run(Config{Seed: 3, Jobs: []Job{decJob(8, 6, false)}}); err != nil {
		t.Fatalf("cluster unusable after start failure: %v", err)
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack for the test runtime's own helpers).
func settleGoroutines(t *testing.T, baseline int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) && n > baseline+2 {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// stuckJob is a job whose ranks all block on receives nobody sends.
func stuckJob(name string, procs int, seed int64) Job {
	return Job{Name: name, Start: func(base mpi.Config) (*mpi.World, error) {
		base.Procs = procs
		base.Seed = seed
		w := mpi.NewWorld(base)
		w.Start(func(r *mpi.Rank) {
			r.World().Recv(r, (r.ID()+1)%procs, 7) // never sent
		})
		return w, nil
	}}
}

// TestRunErrorUnwindsAndReuses: a deliberately deadlocking job pair must
// not leak its parked rank goroutines, and the engine (aborted and
// repooled on the error path) must serve a following healthy run.
func TestRunErrorUnwindsAndReuses(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		_, err := Run(Config{Seed: int64(i), Jobs: []Job{stuckJob("a", 4, 1), stuckJob("b", 4, 2)}})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("run %d: expected a deadlock error, got %v", i, err)
		}
	}
	if n := settleGoroutines(t, baseline); n > baseline+2 {
		t.Errorf("deadlocked runs leaked goroutines: %d before, %d after", baseline, n)
	}
	res, err := Run(Config{Seed: 3, Jobs: []Job{decJob(8, 6, false)}})
	if err != nil {
		t.Fatalf("healthy run after deadlocked runs failed: %v", err)
	}
	if res.Makespan <= 0 {
		t.Errorf("healthy run after deadlocked runs reported makespan %v", res.Makespan)
	}
}

// TestPanickingJobUnwindsOthers: a panicking rank body in one job must
// not leak the other jobs' still-parked rank goroutines — the engine
// unwinds them before re-raising. Before the fix every parked rank of
// every co-scheduled neighbor leaked on this path.
func TestPanickingJobUnwindsOthers(t *testing.T) {
	boom := Job{Name: "boom", Start: func(base mpi.Config) (*mpi.World, error) {
		base.Procs = 2
		base.Seed = 9
		w := mpi.NewWorld(base)
		w.Start(func(r *mpi.Rank) {
			r.Compute(100)
			panic("deliberate test panic")
		})
		return w, nil
	}}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("expected the job panic to propagate")
				} else if !strings.Contains(fmt.Sprint(r), "deliberate test panic") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			Run(Config{Seed: int64(i), Jobs: []Job{stuckJob("parked", 8, 1), boom}})
		}()
	}
	if n := settleGoroutines(t, baseline); n > baseline+2 {
		t.Errorf("panicking job leaked neighbors' goroutines: %d before, %d after", baseline, n)
	}
}

// TestWorkConservingReleasesHog: a hog contending with a short-lived,
// intermittently-demanding light job stays throttled forever under the
// static policies but runs at full bank rate whenever the light job's
// demand is absent under the work-conserving variants — its completion
// time must drop strictly. The light job's protection follows the
// classic work-conserving bound: each of its requests can queue behind
// at most the hog's in-flight writes (the quanta already booked when it
// arrived), never behind pre-reserved future headroom — so it is never
// worse off than under FCFS, the no-isolation baseline. (A light job
// with *continuous* demand keeps its full static protection; that case
// is asserted against the cosched scenario in internal/experiments.)
func TestWorkConservingReleasesHog(t *testing.T) {
	jobs := func() []Job {
		hog := writerJob(2, 80, 32<<20, 0, 41)
		hog.Name = "hog"
		light := writerJob(1, 6, 8<<20, 50*sim.Millisecond, 42)
		light.Name = "light"
		light.Weight = 4
		return []Job{hog, light}
	}
	run := func(policy sim.BankPolicy) Result {
		res, err := runUnder(Config{Seed: 13, Stripes: 1, Jobs: jobs()}, policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs := run(sim.BankFCFS)
	for _, pair := range []struct{ static, wc sim.BankPolicy }{
		{sim.BankFair, sim.BankFairWC},
		{sim.BankWeighted, sim.BankWeightedWC},
	} {
		st := run(pair.static)
		wc := run(pair.wc)
		if wc.JobTimes[0] >= st.JobTimes[0] {
			t.Errorf("%v did not shorten the hog's tail: %v vs %v under %v",
				pair.wc, wc.JobTimes[0], st.JobTimes[0], pair.static)
		}
		// Work conservation: the hog must come out at (or better than)
		// the unthrottled FCFS rate within a small placement tolerance —
		// nothing holds stripes idle for the mostly-absent light job.
		if limit := fcfs.JobTimes[0] + fcfs.JobTimes[0]/20; wc.JobTimes[0] > limit {
			t.Errorf("%v left the hog throttled without contending demand: %v vs %v under fcfs",
				pair.wc, wc.JobTimes[0], fcfs.JobTimes[0])
		}
		// The light job never does worse than the no-isolation baseline.
		if wc.JobTimes[1] > fcfs.JobTimes[1] {
			t.Errorf("%v left the light job worse than FCFS: %v vs %v",
				pair.wc, wc.JobTimes[1], fcfs.JobTimes[1])
		}
		// Demand accounting: the hog spends less time demand-active when
		// served faster, and per-job busy time is policy-independent
		// (the same bytes cross the bank either way).
		if wc.JobDemand[0] >= st.JobDemand[0] {
			t.Errorf("%v: hog demand time %v did not drop vs %v", pair.wc, wc.JobDemand[0], st.JobDemand[0])
		}
		if wc.JobBusy[0] != st.JobBusy[0] || wc.JobBusy[1] != st.JobBusy[1] {
			t.Errorf("%v: per-job busy time moved: %v/%v vs %v/%v",
				pair.wc, wc.JobBusy[0], wc.JobBusy[1], st.JobBusy[0], st.JobBusy[1])
		}
	}
}

var allPolicies = []sim.BankPolicy{sim.BankFCFS, sim.BankFair, sim.BankWeighted, sim.BankFairWC, sim.BankWeightedWC}

// contendedJob is job i of a bank-bound mix: a fast mover that flushes
// every step, job 0 saving its whole particle population and the others
// a quarter, with the light jobs outranking job 0 4:1 under priority.
func contendedJob(i int, seed int64) Job {
	c := ipic3d.DefaultConfig(8)
	c.Seed = seed*101 + int64(i)
	c.MoveRate = 4e6
	c.BufferSteps = 1
	c.SaveFraction = 0.25
	weight := 4.0
	if i == 0 {
		c.SaveFraction = 1
		weight = 1
	}
	return Job{Name: fmt.Sprintf("j%d", i), Weight: weight, Start: func(base mpi.Config) (*mpi.World, error) {
		j, err := ipic3d.StartIO(c, ipic3d.IODecoupled, base)
		if err != nil {
			return nil, err
		}
		return j.World(), nil
	}}
}

// stripeCampaign puts an outage and a half-rate derate on every stripe,
// staggered so that bookings land in and around them.
func stripeCampaign(stripes int) [][]sim.StripeFault {
	sf := make([][]sim.StripeFault, stripes)
	for i := range sf {
		off := sim.Time(i) * 150 * sim.Millisecond
		sf[i] = []sim.StripeFault{
			{Start: 100*sim.Millisecond + off, End: 400*sim.Millisecond + off},
			{Start: 900*sim.Millisecond + off, End: 1500*sim.Millisecond + off, Rate: 0.5},
		}
	}
	return sf
}

// runUnder is Run under one bank policy.
func runUnder(cfg Config, p sim.BankPolicy) (Result, error) {
	res, err := RunPolicies(cfg, []sim.BankPolicy{p})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// eventsOf reports how many events f fires.
func eventsOf(f func()) uint64 {
	ev0 := sim.GlobalEvents()
	f()
	return sim.GlobalEvents() - ev0
}

// TestRunPoliciesMatchesRun is the certificate's differential: for every
// policy, RunPolicies returns the Result a separate run under that policy
// alone returns — over 1, 2 and 3 jobs, 1 and 4 stripes, with and without a
// stripe-fault campaign. The matrix must both share runs (fewer events
// than the separate runs) and separate policies (results that differ), or
// it would not test the certificate.
func TestRunPoliciesMatchesRun(t *testing.T) {
	var shared, distinct int
	for _, jobs := range []int{1, 2, 3} {
		for _, stripes := range []int{1, 4} {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("jobs=%d stripes=%d faulted=%v", jobs, stripes, faulted)
				cfg := Config{Seed: 5, Stripes: stripes}
				for i := 0; i < jobs; i++ {
					cfg.Jobs = append(cfg.Jobs, contendedJob(i, 5))
				}
				if faulted {
					cfg.StripeFaults = stripeCampaign(stripes)
				}
				var got []Result
				together := eventsOf(func() {
					var err error
					if got, err = RunPolicies(cfg, allPolicies); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				})
				var apart uint64
				for i, p := range allPolicies {
					var want Result
					apart += eventsOf(func() {
						var err error
						if want, err = runUnder(cfg, p); err != nil {
							t.Fatalf("%s %v: %v", name, p, err)
						}
					})
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("%s %v: RunPolicies gave %+v, Run gives %+v", name, p, got[i], want)
					}
					if !reflect.DeepEqual(got[i], got[0]) {
						distinct++
					}
				}
				if together < apart {
					shared++
				}
				// A certified copy shares no slice with the run it came from.
				got[0].JobTimes[0]++
				for i := 1; i < len(got); i++ {
					if got[i].JobTimes[0] == got[0].JobTimes[0] {
						t.Errorf("%s: %v's JobTimes aliases %v's", name, allPolicies[i], allPolicies[0])
					}
				}
			}
		}
	}
	t.Logf("%d of 12 configurations shared runs; %d results differed from fcfs's", shared, distinct)
	if shared == 0 || distinct == 0 {
		t.Errorf("the matrix does not exercise the certificate: %d configurations shared runs, %d results differed from fcfs", shared, distinct)
	}
}

// TestRunRejectsBadConfig: stripe faults that are unsorted, overlapping or
// placed beyond the bank, and a negative job weight, are refused with an
// error naming the stripe or job — by Run and RunPolicies alike, before
// any job starts, and without a panic.
func TestRunRejectsBadConfig(t *testing.T) {
	var started bool
	probe := Job{Name: "probe", Start: func(base mpi.Config) (*mpi.World, error) {
		started = true
		return nil, errors.New("started")
	}}
	w := func(a, b sim.Time) sim.StripeFault {
		return sim.StripeFault{Start: a * sim.Millisecond, End: b * sim.Millisecond}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unsorted", Config{Stripes: 2, Jobs: []Job{probe}, StripeFaults: [][]sim.StripeFault{nil, {w(50, 60), w(10, 20)}}}, "stripe 1"},
		{"overlapping", Config{Stripes: 2, Jobs: []Job{probe}, StripeFaults: [][]sim.StripeFault{{w(10, 30), w(20, 40)}}}, "stripe 0"},
		{"beyond the bank", Config{Stripes: 2, Jobs: []Job{probe}, StripeFaults: [][]sim.StripeFault{nil, nil, {w(10, 20)}}}, "stripe 2"},
		{"negative weight", Config{Jobs: []Job{probe, {Name: "heavy", Weight: -2, Start: probe.Start}}}, "job 1 (heavy)"},
	}
	for _, c := range cases {
		for _, via := range []string{"Run", "RunPolicies"} {
			started = false
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
						t.Errorf("%s via %s panicked: %v", c.name, via, r)
					}
				}()
				if via == "Run" {
					_, err = Run(c.cfg)
				} else {
					_, err = RunPolicies(c.cfg, allPolicies)
				}
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s via %s: error %v does not name %q", c.name, via, err, c.want)
			}
			if started {
				t.Errorf("%s via %s: a job started before the configuration was refused", c.name, via)
			}
		}
	}
}
