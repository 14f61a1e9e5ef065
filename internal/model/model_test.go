package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func base() Params {
	return Params{
		TW0:      100 * sim.Millisecond,
		TW1:      50 * sim.Millisecond,
		TSigma:   5 * sim.Millisecond,
		Alpha:    0.0625,
		D:        1 << 30,
		S:        64 << 10,
		Overhead: 200 * sim.Nanosecond,
	}
}

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatalf("base params invalid: %v", err)
	}
	bad := base()
	bad.Alpha = 0
	if bad.Validate() == nil {
		t.Error("alpha=0 accepted")
	}
	bad = base()
	bad.Alpha = 1
	if bad.Validate() == nil {
		t.Error("alpha=1 accepted")
	}
	bad = base()
	bad.S = bad.D + 1
	if bad.Validate() == nil {
		t.Error("S > D accepted")
	}
	bad = base()
	bad.TW0 = -1
	if bad.Validate() == nil {
		t.Error("negative time accepted")
	}
}

func TestConventionalIsSum(t *testing.T) {
	p := base()
	if got := Conventional(p); got != p.TW0+p.TSigma+p.TW1 {
		t.Fatalf("Tc = %v", got)
	}
}

func TestEq3LimitsMatchPaper(t *testing.T) {
	// Paper: β=1 (no pipelining) gives the sum of the two operations;
	// β=0 (perfect pipelining) leaves only the decoupled operation.
	p := base()
	p.beta = func(int64) float64 { return 1 }
	op0 := sim.Time(float64(p.TW0)/(1-p.Alpha)) + p.TSigma
	op1 := sim.Time(float64(p.TW1) / p.Alpha)
	if got := DecoupledPipelined(p); got != op0+op1 {
		t.Fatalf("beta=1: got %v, want %v", got, op0+op1)
	}
	p.beta = func(int64) float64 { return 0 }
	if got := DecoupledPipelined(p); got != op1 {
		t.Fatalf("beta=0: got %v, want %v", got, op1)
	}
}

func TestEq2MaxSemantics(t *testing.T) {
	p := base()
	// Make Op1 dominate.
	p.DecoupledTW1 = func(alpha float64) sim.Time { return 500 * sim.Millisecond }
	want := sim.Time(float64(500*sim.Millisecond) / p.Alpha)
	if got := DecoupledIdeal(p); got != want {
		t.Fatalf("op1-dominated ideal = %v, want %v", got, want)
	}
	// Make Op0 dominate.
	p.DecoupledTW1 = func(alpha float64) sim.Time { return 0 }
	want = sim.Time(float64(p.TW0)/(1-p.Alpha)) + p.TSigma
	if got := DecoupledIdeal(p); got != want {
		t.Fatalf("op0-dominated ideal = %v, want %v", got, want)
	}
}

// TestBracketNamesTheCriticalGroup checks both arms: with Op1 critical
// the bracket is Eq. 2's max, below Eq. 3 and Eq. 4; with Op0 critical
// it is Eq. 4.
func TestBracketNamesTheCriticalGroup(t *testing.T) {
	p := base() // T'W1/α = 800 ms against TW0/(1-α)+Tσ = 111.7 ms
	got, critical := Bracket(p)
	if critical != 1 || got != DecoupledIdeal(p) {
		t.Errorf("Op1 critical: Bracket = %v, group %d; want Eq. 2's %v, group 1", got, critical, DecoupledIdeal(p))
	}
	if got >= DecoupledPipelined(p) || got >= Decoupled(p) {
		t.Errorf("Op1 critical: Bracket %v not below Eq. 3 %v and Eq. 4 %v", got, DecoupledPipelined(p), Decoupled(p))
	}
	p.DecoupledTW1 = func(alpha float64) sim.Time { return 5 * sim.Millisecond } // T'W1/α = 80 ms
	got, critical = Bracket(p)
	if critical != 0 || got != Decoupled(p) {
		t.Errorf("Op0 critical: Bracket = %v, group %d; want Eq. 4's %v, group 0", got, critical, Decoupled(p))
	}
}

func TestOverheadGrowsAsGranularityShrinks(t *testing.T) {
	p := base()
	p.beta = func(int64) float64 { return 0.5 } // isolate the overhead term
	p.S = 1 << 20
	coarse := Decoupled(p)
	p.S = 1 << 10
	fine := Decoupled(p)
	if fine <= coarse {
		t.Fatalf("finer granularity did not increase overhead: fine=%v coarse=%v", fine, coarse)
	}
}

func TestGranularityTradeoffHasInteriorOptimum(t *testing.T) {
	p := base()
	candidates := []int64{1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 28}
	s, _ := OptimalGranularity(p, candidates)
	if s == candidates[0] || s == candidates[len(candidates)-1] {
		t.Fatalf("optimal S = %d is at the boundary; expected interior optimum", s)
	}
}

func TestOptimalAlphaPrefersSmallGroupForCheapOp(t *testing.T) {
	p := base()
	// The decoupled op gets dramatically cheaper on a small group
	// (complexity reduction), mimicking the MapReduce reduce op.
	p.DecoupledTW1 = func(alpha float64) sim.Time {
		return sim.Time(float64(p.TW1) * alpha * 2)
	}
	a, _ := OptimalAlpha(p, []float64{0.03125, 0.0625, 0.125, 0.25, 0.5})
	if a > 0.125 {
		t.Fatalf("optimal alpha = %v, expected a small consumer group", a)
	}
}

func TestSpeedupPositiveWorkload(t *testing.T) {
	p := base()
	p.DecoupledTW1 = func(alpha float64) sim.Time { return sim.Time(float64(p.TW1) * alpha) }
	s := Speedup(p)
	if s <= 0 || math.IsNaN(s) {
		t.Fatalf("speedup = %v", s)
	}
}

func TestMemoryBound(t *testing.T) {
	p := base()
	if MemoryBound(p, false) != p.S {
		t.Error("streaming memory bound should be S")
	}
	if MemoryBound(p, true) != p.D {
		t.Error("buffered memory bound should be D")
	}
}

func TestBetaModelMonotone(t *testing.T) {
	b := DefaultBeta
	prev := -1.0
	for _, s := range []int64{0, 1, 1 << 10, 1 << 20, 1 << 30, 1 << 40} {
		v := b.Of(s)
		if v < prev {
			t.Fatalf("beta not monotone at S=%d: %v < %v", s, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("beta out of range at S=%d: %v", s, v)
		}
		prev = v
	}
	if b.Of(0) != b.Min {
		t.Fatalf("beta(0) = %v, want Min %v", b.Of(0), b.Min)
	}
}

// Property: Eq. 3 is bounded by the Eq. 2 ideal below (same β-free op1
// term) and by the no-pipelining sum above.
func TestEq3BoundsProperty(t *testing.T) {
	f := func(w0, w1, sig uint32, arate uint8, brate uint8) bool {
		alpha := (float64(arate%98) + 1) / 100
		beta := float64(brate%101) / 100
		p := Params{
			TW0:    sim.Time(w0),
			TW1:    sim.Time(w1),
			TSigma: sim.Time(sig),
			Alpha:  alpha,
			beta:   func(int64) float64 { return beta },
		}
		got := DecoupledPipelined(p)
		op0 := sim.Time(float64(p.TW0)/(1-alpha)) + p.TSigma
		op1 := sim.Time(float64(p.TW1) / alpha)
		return got >= op1-1 && got <= op0+op1+1 // ±1ns rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoupled time (Eq. 4) decreases or stays equal when the
// per-element overhead decreases.
func TestOverheadMonotoneProperty(t *testing.T) {
	f := func(o1, o2 uint16) bool {
		a, b := sim.Time(o1), sim.Time(o2)
		if a > b {
			a, b = b, a
		}
		p := base()
		p.Overhead = a
		ta := Decoupled(p)
		p.Overhead = b
		tb := Decoupled(p)
		return ta <= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
