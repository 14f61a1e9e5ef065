package ipic3d

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// quickConfig shrinks the workload for fast tests.
func quickConfig(procs int) Config {
	c := DefaultConfig(procs)
	c.ParticlesPerProc = 20_000
	c.Steps = 3
	return c
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(32).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Procs = 1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.ParticlesPerProc = 0 },
		func(c *Config) { c.Mobility = 0.9 },
		func(c *Config) { c.ForwardContinue = 1 },
		func(c *Config) { c.SaveFraction = 0 },
		func(c *Config) { c.BufferSteps = 0 },
		func(c *Config) { c.PackRate = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig(32)
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestExitCountsPartition(t *testing.T) {
	for _, total := range []int64{0, 1, 99, 1000, 123457} {
		counts := exitCounts(total)
		var sum int64
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative direction count for total %d: %v", total, counts)
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("exit counts %v sum to %d, want %d", counts, sum, total)
		}
	}
}

func TestCommReferenceRuns(t *testing.T) {
	res, err := RunCommReference(quickConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Messages <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// Forwarding needs several rounds per step (diagonal movers), within
	// the paper's DimX+DimY+DimZ bound.
	bound := 3 * (4 + 2 + 2) // generous: steps x dims sum
	if res.ForwardRounds < 3 || res.ForwardRounds > bound*3 {
		t.Fatalf("forward rounds = %d", res.ForwardRounds)
	}
}

func TestCommDecoupledRuns(t *testing.T) {
	res, err := RunCommDecoupled(quickConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestCommDeterministic(t *testing.T) {
	c := quickConfig(16)
	a, err := RunCommDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCommDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("nondeterministic: %v vs %v", a.Time, b.Time)
	}
}

// Fig. 7's shape: the reference's time grows with scale while the
// decoupled implementation stays near constant and wins at scale.
func TestCommDecoupledWinsAtScale(t *testing.T) {
	run := func(p int, dec bool) sim.Time {
		c := DefaultConfig(p)
		c.Steps = 5
		c.ParticlesPerProc = 100_000
		var res Result
		var err error
		if dec {
			res, err = RunCommDecoupled(c)
		} else {
			res, err = RunCommReference(c)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	// Decoupled stays near-constant while the reference drifts upward.
	// Exact per-size ratios wobble with the Cartesian decomposition's
	// sampling of the Harris sheet, so assert the aggregate shape.
	decGrowth := float64(run(512, true)) / float64(run(128, true))
	if decGrowth > 1.1 {
		t.Fatalf("decoupled not flat: growth %.3f from 128 to 512", decGrowth)
	}
	if ref, dec := run(512, false), run(512, true); dec >= ref {
		t.Fatalf("decoupled (%v) not faster than reference (%v) at 512 procs", dec, ref)
	}
}

func TestIOVariantsRun(t *testing.T) {
	for _, v := range []IOVariant{IOCollective, IOShared, IODecoupled} {
		res, err := RunIO(quickConfig(17), v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Time <= 0 || res.BytesWritten <= 0 {
			t.Fatalf("%v: degenerate result %+v", v, res)
		}
	}
}

func TestIOVariantStrings(t *testing.T) {
	if IOCollective.String() != "RefColl" || IOShared.String() != "RefShared" || IODecoupled.String() != "Decoupling" {
		t.Fatal("variant names do not match the figure legend")
	}
}

// All three I/O paths must write the same volume (same workload).
func TestIOVolumesAgree(t *testing.T) {
	c := quickConfig(16)
	coll, err := RunIO(c, IOCollective)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunIO(c, IOShared)
	if err != nil {
		t.Fatal(err)
	}
	if coll.BytesWritten != shared.BytesWritten {
		t.Fatalf("collective wrote %d, shared wrote %d", coll.BytesWritten, shared.BytesWritten)
	}
	// The decoupled path holds the same global population on fewer
	// ranks; its volume must be within the integer-rounding error.
	dec, err := RunIO(c, IODecoupled)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := coll.BytesWritten*90/100, coll.BytesWritten*110/100
	if dec.BytesWritten < lo || dec.BytesWritten > hi {
		t.Fatalf("decoupled volume %d far from reference %d", dec.BytesWritten, coll.BytesWritten)
	}
}

// Fig. 8's shape: shared-pointer I/O degrades fastest, collective I/O
// degrades moderately, decoupled I/O stays near flat.
func TestIOOrderingAtScale(t *testing.T) {
	c := DefaultConfig(512)
	c.Steps = 5
	c.ParticlesPerProc = 100_000
	coll, err := RunIO(c, IOCollective)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunIO(c, IOShared)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := RunIO(c, IODecoupled)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Time >= coll.Time {
		t.Fatalf("decoupled (%v) not faster than collective (%v)", dec.Time, coll.Time)
	}
	if coll.Time >= shared.Time {
		t.Fatalf("collective (%v) not faster than shared (%v)", coll.Time, shared.Time)
	}
}

// Fig. 2: the decoupled trace shows computation and communication
// overlapping, and a shorter makespan, on the paper's 7-rank setup.
func TestFig2TraceShape(t *testing.T) {
	c := quickConfig(7)
	var recRef trace.Recorder
	c.Tracer = &recRef
	ref, err := RunCommReference(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Tracer = nil
	cdec := c
	var recDec trace.Recorder
	cdec.Tracer = &recDec
	dec, err := RunCommDecoupled(cdec)
	if err != nil {
		t.Fatal(err)
	}
	if recRef.Len() == 0 || recDec.Len() == 0 {
		t.Fatal("traces empty")
	}
	_ = ref
	_ = dec
	// The reference trace must contain pack/unpack (comm-phase) spans on
	// every rank; the decoupled compute ranks must not.
	refPack := 0
	for _, s := range recRef.Spans() {
		if s.Label == "pack" || s.Label == "unpack" {
			refPack++
		}
	}
	if refPack == 0 {
		t.Fatal("reference trace has no communication-phase spans")
	}
	for _, s := range recDec.Spans() {
		if s.Label == "pack" || s.Label == "unpack" {
			t.Fatalf("decoupled compute rank shows %s span", s.Label)
		}
	}
}

// TestIOCoresDeterminism pins the parallel-mode contract at the app
// layer: every Fig. 8 variant produces identical results for any worker
// count >= 1.
func TestIOCoresDeterminism(t *testing.T) {
	for _, v := range []IOVariant{IOCollective, IOShared, IODecoupled} {
		c := quickConfig(32)
		c.Cores = 1
		ref, err := RunIO(c, v)
		if err != nil {
			t.Fatalf("%v cores=1: %v", v, err)
		}
		for _, cores := range []int{2, 4, 8} {
			c.Cores = cores
			got, err := RunIO(c, v)
			if err != nil {
				t.Fatalf("%v cores=%d: %v", v, cores, err)
			}
			if got != ref {
				t.Errorf("%v cores=%d: %+v != cores=1 %+v", v, cores, got, ref)
			}
		}
	}
}
