package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestJainDegenerateInputs: an all-zero (or empty) slowdown vector must
// yield a finite fairness index — the formula's 0/0 is defined as 1, the
// all-equal limit — so a degenerate configuration cannot write NaN rows.
func TestJainDegenerateInputs(t *testing.T) {
	for _, xs := range [][]float64{{0, 0, 0}, {0}, nil} {
		if got := jain(xs); math.IsNaN(got) || got != 1 {
			t.Errorf("jain(%v) = %v, want 1", xs, got)
		}
	}
	if got := jain([]float64{2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("jain(equal) = %v, want 1", got)
	}
	if got := jain([]float64{1, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jain(1,0,0) = %v, want 1/3", got)
	}
}

// TestSlowdownRatioDegenerateBaseline: a zero single-job baseline must
// not produce ±Inf or NaN slowdowns.
func TestSlowdownRatioDegenerateBaseline(t *testing.T) {
	cases := []struct{ shared, alone, want float64 }{
		{0, 0, 1},
		{2.5, 0, 2.5}, // degenerate: reported as the co-scheduled seconds
		{3, 2, 1.5},
	}
	for _, c := range cases {
		got := slowdownRatio(c.shared, c.alone)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("slowdownRatio(%v, %v) = %v, not finite", c.shared, c.alone, got)
		}
		if got != c.want {
			t.Errorf("slowdownRatio(%v, %v) = %v, want %v", c.shared, c.alone, got, c.want)
		}
	}
}

// coschedScenario runs the examples/cosched job mix — one full-save hog
// plus two down-sampled light jobs on a narrow shared bank — under one
// policy and reports per-job completion times.
func coschedScenario(t *testing.T, policy sim.BankPolicy, stripes int) cluster.Result {
	t.Helper()
	cjobs := make([]cluster.Job, 3)
	for i := range cjobs {
		cjobs[i] = coschedJob(i, 1)
	}
	res, err := cluster.RunPolicies(cluster.Config{Jobs: cjobs, Stripes: stripes, Seed: 1}, []sim.BankPolicy{policy})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestCoschedStaticPoliciesByteIdenticalToPR4 pins the fcfs, fair and
// priority trajectories of the cosched hog + 2-lights scenario to the
// per-job completion times recorded from the PR 4 build. The work-conserving policies and their
// demand plumbing are additive: the demand hooks are pure bookkeeping,
// so the pre-existing policies must not move by a nanosecond (and
// TrajectoryVersion stayed at 2).
func TestCoschedStaticPoliciesByteIdenticalToPR4(t *testing.T) {
	want := map[sim.BankPolicy]map[int][3]sim.Time{
		sim.BankFCFS: {
			1: {3767690819, 3846167571, 3809010547},
			4: {2603231451, 1259593676, 1126918276},
		},
		sim.BankFair: {
			1: {7300235443, 2630435123, 2593278099},
			4: {2603231451, 1259593676, 1126918276},
		},
		sim.BankWeighted: {
			1: {21442742419, 1660241947, 1612776511},
			4: {5532422071, 1259593676, 1126918276},
		},
	}
	for policy, byStripes := range want {
		for stripes, times := range byStripes {
			res := coschedScenario(t, policy, stripes)
			for i, w := range times {
				if res.JobTimes[i] != w {
					t.Errorf("%v stripes=%d job %d finished at %d, PR4 recorded %d",
						policy, stripes, i, res.JobTimes[i], w)
				}
			}
		}
	}
}

// TestCoschedWorkConservingHogTail is the headline acceptance check: in
// the hog + 2-lights scenario on one stripe, once both light jobs
// finish, the hog's remaining I/O proceeds at the full bank rate under
// the work-conserving policies — its makespan lands strictly below the
// static-share policy's, the light jobs keep their static protection
// (their demand is continuous, so their share never shrinks), and the
// hog's tail beyond the last light collapses.
func TestCoschedWorkConservingHogTail(t *testing.T) {
	for _, pair := range []struct{ static, wc sim.BankPolicy }{
		{sim.BankFair, sim.BankFairWC},
		{sim.BankWeighted, sim.BankWeightedWC},
	} {
		st := coschedScenario(t, pair.static, 1)
		wc := coschedScenario(t, pair.wc, 1)
		if wc.JobTimes[0] >= st.JobTimes[0] {
			t.Errorf("hog makespan %v under %v is not strictly below %v under %v",
				wc.JobTimes[0], pair.wc, st.JobTimes[0], pair.static)
		}
		for i := 1; i < 3; i++ {
			if wc.JobTimes[i] > st.JobTimes[i] {
				t.Errorf("light job %d degraded under %v: %v vs %v",
					i, pair.wc, wc.JobTimes[i], st.JobTimes[i])
			}
		}
		tail := func(r cluster.Result) sim.Time {
			last := sim.Max(r.JobTimes[1], r.JobTimes[2])
			if r.JobTimes[0] <= last {
				return 0
			}
			return r.JobTimes[0] - last
		}
		stTail, wcTail := tail(st), tail(wc)
		if wcTail*2 > stTail {
			t.Errorf("hog tail %v under %v did not collapse vs %v under %v (want at least 2x shorter)",
				wcTail, pair.wc, stTail, pair.static)
		}
		// "Full bank rate" quantified against the unthrottled baseline:
		// under FCFS the hog is never paced at all, so its completion
		// time is the floor. The work-conserving hog pays only its share
		// while the lights are present and must land within 1.5x of that
		// floor; the static policies sit at ~1.9x (fair) and ~5.7x
		// (priority) on this scenario because their pacing never relents.
		fcfs := coschedScenario(t, sim.BankFCFS, 1)
		if limit := fcfs.JobTimes[0] + fcfs.JobTimes[0]/2; wc.JobTimes[0] > limit {
			t.Errorf("%v hog makespan %v is not within 1.5x of the unthrottled %v — tail not at full rate",
				pair.wc, wc.JobTimes[0], fcfs.JobTimes[0])
		}
	}
}
