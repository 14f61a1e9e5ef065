package cg

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// quickConfig shrinks the CG experiment for fast tests.
func quickConfig(procs int) Config {
	c := DefaultConfig(procs)
	c.PointsPerSide = 24
	c.Iterations = 5
	return c
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(32).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig(32)
	bad.Alpha = 0
	if bad.Validate() == nil {
		t.Error("alpha=0 accepted")
	}
	bad = DefaultConfig(32)
	bad.InnerFraction = 1
	if bad.Validate() == nil {
		t.Error("inner fraction 1 accepted")
	}
}

func TestVariantStrings(t *testing.T) {
	if Blocking.String() == "" || Nonblocking.String() == "" || Decoupled.String() == "" {
		t.Fatal("missing variant names")
	}
}

func TestAllVariantsRun(t *testing.T) {
	for _, v := range []Variant{Blocking, Nonblocking, Decoupled} {
		res, err := Run(quickConfig(18), v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Time <= 0 || res.Messages <= 0 {
			t.Fatalf("%v: degenerate result %+v", v, res)
		}
	}
}

func TestDeterministic(t *testing.T) {
	c := quickConfig(18)
	a, err := Run(c, Decoupled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, Decoupled)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("nondeterministic: %v vs %v", a.Time, b.Time)
	}
}

// Fig. 6's shape: blocking degrades with scale while nonblocking and
// decoupling stay nearly flat and close to each other.
func TestBlockingDegradesOthersFlat(t *testing.T) {
	run := func(p int, v Variant) sim.Time {
		c := DefaultConfig(p)
		c.Iterations = 10
		c.PointsPerSide = 48
		res, err := Run(c, v)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	const small, large = 32, 256
	blkGrowth := float64(run(large, Blocking)) / float64(run(small, Blocking))
	decGrowth := float64(run(large, Decoupled)) / float64(run(small, Decoupled))
	if blkGrowth <= decGrowth {
		t.Fatalf("blocking growth %.3f not worse than decoupled growth %.3f", blkGrowth, decGrowth)
	}
	// Decoupling matches nonblocking within a few percent (the paper's
	// "same efficiency as the MPI non-blocking operations").
	nbc, dec := run(large, Nonblocking), run(large, Decoupled)
	ratio := float64(dec) / float64(nbc)
	if ratio > 1.05 || ratio < 0.9 {
		t.Fatalf("decoupled/nonblocking ratio %.3f outside [0.9, 1.05]", ratio)
	}
	// And blocking is the worst at scale.
	if blk := run(large, Blocking); blk <= dec {
		t.Fatalf("blocking (%v) not slower than decoupled (%v) at %d procs", blk, dec, large)
	}
}

func TestTracerSeesPhases(t *testing.T) {
	c := quickConfig(18)
	var rec trace.Recorder
	c.tracer = &rec
	if _, err := Run(c, Nonblocking); err != nil {
		t.Fatal(err)
	}
	saw := map[string]bool{}
	for _, s := range rec.Spans() {
		saw[s.Label] = true
	}
	if !saw["stencil-inner"] || !saw["stencil-boundary"] {
		t.Fatalf("missing stencil spans: %v", saw)
	}
}
