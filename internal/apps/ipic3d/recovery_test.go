package ipic3d

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// recTestConfig is a small recovery workload: big enough that a crash
// lands mid-run, small enough for -race CI.
func recTestConfig() Config {
	c := DefaultConfig(8)
	c.Steps = 8
	return c
}

// crashAtThird returns a campaign with one crash a third of the way
// through a run of the given clean makespan.
func crashAtThird(base sim.Time, target int) *faults.Injection {
	return &faults.Injection{Crash: []sim.CrashEvent{
		{At: base / 3, Target: target, Restart: 200 * sim.Microsecond},
	}}
}

// TestRecoveryCleanRun: without crashes the checkpoint-aware bodies
// waste nothing, restart nobody, and write Steps/ckptEvery checkpoints.
func TestRecoveryCleanRun(t *testing.T) {
	for _, v := range []IOVariant{IOCollective, IOShared, IODecoupled} {
		res, err := RunRecovery(recTestConfig(), v, 3)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.WastedCompute != 0 || res.Restarts != 0 || res.Failovers != 0 {
			t.Errorf("%v: clean run wasted %v, restarts %d, failovers %d",
				v, res.WastedCompute, res.Restarts, res.Failovers)
		}
		if res.TotalCompute != res.UsefulCompute {
			t.Errorf("%v: total %v != useful %v on a clean run", v, res.TotalCompute, res.UsefulCompute)
		}
		if res.Checkpoints == 0 || res.CheckpointBytes == 0 {
			t.Errorf("%v: no checkpoints written (%d ops, %d bytes)", v, res.Checkpoints, res.CheckpointBytes)
		}
	}
}

// TestRecoveryUnderCrash: a mid-run crash must complete with replayed
// (wasted) work, one respawn, and a makespan above the clean run, for
// every variant.
func TestRecoveryUnderCrash(t *testing.T) {
	for _, v := range []IOVariant{IOCollective, IOShared, IODecoupled} {
		clean, err := RunRecovery(recTestConfig(), v, 3)
		if err != nil {
			t.Fatalf("%v clean: %v", v, err)
		}
		c := recTestConfig()
		c.Faults = crashAtThird(clean.Time, 2)
		res, err := RunRecovery(c, v, 3)
		if err != nil {
			t.Fatalf("%v crashed: %v", v, err)
		}
		if res.Restarts != 1 {
			t.Errorf("%v: restarts = %d, want 1", v, res.Restarts)
		}
		if res.Failovers == 0 {
			t.Errorf("%v: no protect-scope failovers recorded", v)
		}
		if res.WastedCompute <= 0 {
			t.Errorf("%v: no wasted compute after a rollback", v)
		}
		if res.Time <= clean.Time {
			t.Errorf("%v: crashed makespan %v not above clean %v", v, res.Time, clean.Time)
		}
		if f := res.WastedFraction(); f <= 0 || f >= 1 {
			t.Errorf("%v: wasted fraction %v outside (0,1)", v, f)
		}
	}
}

// TestRecoveryReplayAcrossRepresentations is the app-level replay
// contract: a fixed crash campaign produces the identical
// RecoveryResult on every run, pooled world reuse included, for every
// variant.
func TestRecoveryReplayAcrossRepresentations(t *testing.T) {
	for _, v := range []IOVariant{IOCollective, IOShared, IODecoupled} {
		clean, err := RunRecovery(recTestConfig(), v, 3)
		if err != nil {
			t.Fatalf("%v clean: %v", v, err)
		}
		run := func() RecoveryResult {
			c := recTestConfig()
			c.Faults = crashAtThird(clean.Time, 1)
			res, err := RunRecovery(c, v, 3)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			return res
		}
		first := run()
		if again := run(); again != first {
			t.Errorf("%v: pooled-reuse replay diverged:\n%+v\n%+v", v, again, first)
		}
	}
}

// TestRunIORejectsCrashCampaign: the plain Fig. 8 runners must refuse
// crash-carrying campaigns (their bodies cannot recover).
func TestRunIORejectsCrashCampaign(t *testing.T) {
	c := recTestConfig()
	c.Faults = crashAtThird(sim.Second, 0)
	if _, err := RunIO(c, IOShared); err == nil {
		t.Error("RunIO accepted a crash campaign")
	}
	if _, err := StartIO(c, IOShared, mpi.Config{}); err == nil {
		t.Error("StartIO accepted a crash campaign")
	}
}

// TestRunRecoveryRejectsMessageFaults: the recovery runner must refuse a
// message-fault campaign, whose unreachable rank its bodies cannot
// recover from, before any rank runs.
func TestRunRecoveryRejectsMessageFaults(t *testing.T) {
	c := recTestConfig()
	c.Faults = &faults.Injection{Msg: &netmodel.MsgFaults{DropSeed: 1, DropRate: 0.001}}
	if _, err := RunRecovery(c, IODecoupled, 2); err == nil || !strings.Contains(err.Error(), "message-fault") {
		t.Errorf("RunRecovery with message faults: error %v, want a message-fault refusal", err)
	}
}
