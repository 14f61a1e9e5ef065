package ipic3d

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ioVariants is the Fig. 8 sweep order used by the fault tests.
var ioVariants = []IOVariant{IOCollective, IOShared, IODecoupled}

// testCampaign compiles a campaign sized to quickConfig's ~0.1s virtual
// makespan, with every injector family represented.
func testCampaign(t *testing.T, procs int) *faults.Injection {
	t.Helper()
	sp := faults.Spec{
		Seed:    7,
		Horizon: 300 * sim.Millisecond,
		Bursts:  6, BurstLen: 40 * sim.Millisecond, BurstFactor: 10,
		Outages: 2, OutageLen: 80 * sim.Millisecond,
		DerateStripes: 6, DerateRate: 0.25,
		Flaps: 3, FlapLen: 50 * sim.Millisecond, LatencyFactor: 8, BandwidthFactor: 4,
	}
	inj, err := sp.Plan(procs, 16).Compile(procs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Empty() {
		t.Fatal("test campaign compiled to an empty injection")
	}
	return &inj
}

// TestIOFaultsEmptyInjectionNeutral: a compiled empty plan must leave
// every variant's trajectory byte-identical to Faults == nil — the
// contract that lets fault plumbing ride in every configuration without
// moving unfaulted results.
func TestIOFaultsEmptyInjectionNeutral(t *testing.T) {
	for _, v := range ioVariants {
		c := quickConfig(17)
		base, err := RunIO(c, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		inj, err := faults.Plan{}.Compile(c.Procs, 16)
		if err != nil {
			t.Fatal(err)
		}
		c.Faults = &inj
		same, err := RunIO(c, v)
		if err != nil {
			t.Fatalf("%v faulted: %v", v, err)
		}
		if same != base {
			t.Fatalf("%v: empty injection moved the result: %+v vs %+v", v, same, base)
		}
	}
}

// TestIOFaultsDeterministic: one compiled campaign must produce the
// identical result across repeated runs (which reuse pooled
// worlds/engines) — and must actually perturb the clean trajectory, or
// the determinism claim is vacuous.
func TestIOFaultsDeterministic(t *testing.T) {
	inj := testCampaign(t, 17)
	for _, v := range ioVariants {
		var ref Result
		first := true
		for rep := 0; rep < 2; rep++ {
			c := quickConfig(17)
			c.Faults = inj
			res, err := RunIO(c, v)
			if err != nil {
				t.Fatalf("%v rep=%d: %v", v, rep, err)
			}
			if first {
				ref, first = res, false
			} else if res != ref {
				t.Fatalf("%v rep=%d: faulted result diverged: %+v vs %+v", v, rep, res, ref)
			}
		}
		clean, err := RunIO(quickConfig(17), v)
		if err != nil {
			t.Fatal(err)
		}
		if ref == clean {
			t.Fatalf("%v: campaign perturbed nothing (faulted == clean %+v)", v, clean)
		}
		if ref.Time < clean.Time {
			t.Fatalf("%v: faults shortened the makespan: %v < %v", v, ref.Time, clean.Time)
		}
	}
}

// TestStartIORejectsStripeFaults: stripe faults on a co-scheduled job
// would degrade the shared bank behind the cluster's back; StartIO must
// refuse them (cluster.Config.StripeFaults owns that).
func TestStartIORejectsStripeFaults(t *testing.T) {
	inj := testCampaign(t, 17)
	if inj.Stripe == nil {
		t.Fatal("test campaign has no stripe faults")
	}
	c := quickConfig(17)
	c.Faults = inj
	eng := sim.NewEngine(1)
	base := mpi.Config{Engine: eng, Bank: sim.NewBank(4, 1, sim.BankFCFS), FS: netmodel.LustreLike()}
	if _, err := StartIO(c, IODecoupled, base); err == nil {
		t.Fatal("StartIO accepted stripe faults on a shared bank")
	}
}

// TestTracingNeutralUnderFaults: tracing observes a faulted run without
// moving it. For every variant, a recovery run through a crash and
// restart, a RunIO at 5 % message loss and a co-scheduled StartIO job
// each return the same result and fire the same number of events traced
// as untraced, and the traced run records spans.
func TestTracingNeutralUnderFaults(t *testing.T) {
	for _, v := range ioVariants {
		clean, err := RunRecovery(recTestConfig(), v, 3)
		if err != nil {
			t.Fatalf("%v clean: %v", v, err)
		}
		runs := []struct {
			name string
			run  func(tr mpi.Tracer) (any, error)
		}{
			{"recovery", func(tr mpi.Tracer) (any, error) {
				c := recTestConfig()
				c.Faults = crashAtThird(clean.Time, 2)
				c.Tracer = tr
				return RunRecovery(c, v, 3)
			}},
			{"lossy", func(tr mpi.Tracer) (any, error) {
				c := quickConfig(17)
				c.Faults = &faults.Injection{Msg: &netmodel.MsgFaults{DropSeed: 1, DropRate: 0.05}}
				c.Tracer = tr
				return RunIO(c, v)
			}},
			{"cosched", func(tr mpi.Tracer) (any, error) {
				c := quickConfig(16)
				c.Tracer = tr
				return cluster.Run(cluster.Config{Seed: c.Seed, Jobs: []cluster.Job{{Start: func(base mpi.Config) (*mpi.World, error) {
					j, err := StartIO(c, v, base)
					if err != nil {
						return nil, err
					}
					return j.World(), nil
				}}}})
			}},
		}
		for _, r := range runs {
			before := sim.GlobalEvents()
			plain, err := r.run(nil)
			if err != nil {
				t.Fatalf("%v %s untraced: %v", v, r.name, err)
			}
			plainEvents := sim.GlobalEvents() - before
			var rec trace.Recorder
			before = sim.GlobalEvents()
			traced, err := r.run(&rec)
			if err != nil {
				t.Fatalf("%v %s traced: %v", v, r.name, err)
			}
			tracedEvents := sim.GlobalEvents() - before
			if !reflect.DeepEqual(traced, plain) || tracedEvents != plainEvents {
				t.Errorf("%v %s: tracing moved the run: %+v in %d events, untraced %+v in %d",
					v, r.name, traced, tracedEvents, plain, plainEvents)
			}
			if rec.Len() == 0 {
				t.Errorf("%v %s: traced run recorded no spans", v, r.name)
			}
		}
	}
}
