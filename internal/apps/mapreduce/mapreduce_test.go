package mapreduce

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// quickConfig shrinks the workload so tests run in milliseconds.
func quickConfig(procs int) Config {
	c := DefaultConfig(procs)
	c.MeanFileBytes = 8 << 20
	c.ChunkBytes = 2 << 20
	return c
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(32).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(32)
	bad.Procs = 1
	if bad.Validate() == nil {
		t.Error("1 proc accepted")
	}
	bad = DefaultConfig(32)
	bad.Alpha = 1
	if bad.Validate() == nil {
		t.Error("alpha=1 accepted")
	}
	bad = DefaultConfig(32)
	bad.MapRate = 0
	if bad.Validate() == nil {
		t.Error("zero map rate accepted")
	}
	// The corpus draws file sizes from [MeanFileBytes/2, 2*MeanFileBytes],
	// which is empty at the bottom for a one-byte mean.
	bad = DefaultConfig(32)
	bad.MeanFileBytes = 1
	if bad.Validate() == nil {
		t.Error("one-byte mean file accepted")
	}
}

func TestReferenceRuns(t *testing.T) {
	res, err := RunReference(quickConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.TotalBytes <= 0 || res.Messages <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestDecoupledRuns(t *testing.T) {
	res, err := RunDecoupled(quickConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Elements <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestDecoupledNeedsAlpha(t *testing.T) {
	c := quickConfig(16)
	c.Alpha = 0
	if _, err := RunDecoupled(c); err == nil {
		t.Fatal("alpha=0 decoupled run accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	c := quickConfig(16)
	a, err := RunDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Elements != b.Elements {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	c := quickConfig(16)
	a, _ := RunDecoupled(c)
	c.Seed = 999
	b, _ := RunDecoupled(c)
	if a.Time == b.Time {
		t.Fatal("different seeds produced identical times")
	}
}

func TestElementCountMatchesChunks(t *testing.T) {
	c := quickConfig(16)
	c.Noise = netmodel.Noise{}
	res, err := RunDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks are ceil(share/ChunkBytes) per mapper; the total must be
	// within one chunk per mapper of totalBytes/ChunkBytes.
	approx := res.TotalBytes / c.ChunkBytes
	if res.Elements < approx-16 || res.Elements > approx+16 {
		t.Fatalf("elements = %d, want about %d", res.Elements, approx)
	}
}

// The paper's headline: the decoupled implementation wins, and the gap
// grows with scale (Fig. 5, 2x at 32 procs growing to 4x at 8,192).
func TestDecoupledBeatsReferenceAndGapGrows(t *testing.T) {
	ratio := func(p int) float64 {
		c := DefaultConfig(p)
		ref, err := RunReference(c)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := RunDecoupled(c)
		if err != nil {
			t.Fatal(err)
		}
		return float64(ref.Time) / float64(dec.Time)
	}
	small, large := ratio(32), ratio(256)
	if small < 1.2 {
		t.Fatalf("decoupled not clearly ahead at 32 procs: ratio %.2f", small)
	}
	if large <= small {
		t.Fatalf("gap did not grow with scale: %.2f at 32 vs %.2f at 256", small, large)
	}
}

// Fig. 5's alpha comparison: at scale, alpha=6.25%% beats 12.5%%.
func TestAlphaOrderingAtScale(t *testing.T) {
	c := DefaultConfig(256)
	c.Alpha = 0.0625
	best, err := RunDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Alpha = 0.125
	wide, err := RunDecoupled(c)
	if err != nil {
		t.Fatal(err)
	}
	if float64(wide.Time) < float64(best.Time)*0.95 {
		t.Fatalf("alpha=12.5%% (%v) clearly beat alpha=6.25%% (%v)", wide.Time, best.Time)
	}
}

func TestTracerReceivesSpans(t *testing.T) {
	c := quickConfig(8)
	var rec trace.Recorder
	c.tracer = &rec
	if _, err := RunDecoupled(c); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	sawMap, sawReduce := false, false
	for _, s := range rec.Spans() {
		switch s.Label {
		case "map":
			sawMap = true
		case "reduce":
			sawReduce = true
		}
	}
	if !sawMap || !sawReduce {
		t.Fatalf("missing phases in trace: map=%v reduce=%v", sawMap, sawReduce)
	}
}
