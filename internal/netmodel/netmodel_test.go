package netmodel

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSerializationTimeScalesWithSize(t *testing.T) {
	p := AriesLike()
	small := p.SerializationTime(1000)
	large := p.SerializationTime(1000000)
	if large <= small {
		t.Fatalf("1MB (%v) not slower than 1KB (%v)", large, small)
	}
	// 10 GB/s: 1 MB should take ~100us plus the 50ns gap.
	want := sim.Time(100 * sim.Microsecond)
	if large < want || large > want+10*sim.Microsecond {
		t.Fatalf("1MB serialization = %v, want about %v", large, want)
	}
}

func TestSerializationTimeZeroBytes(t *testing.T) {
	p := AriesLike()
	if got := p.SerializationTime(0); got != p.MessageGap {
		t.Fatalf("zero-byte message = %v, want gap %v", got, p.MessageGap)
	}
}

func TestSerializationTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	AriesLike().SerializationTime(-1)
}

// Property: serialization time is monotone in message size.
func TestSerializationMonotoneProperty(t *testing.T) {
	p := AriesLike()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.SerializationTime(x) <= p.SerializationTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFSParamsValidate(t *testing.T) {
	if err := LustreLike().Validate(); err != nil {
		t.Fatalf("LustreLike invalid: %v", err)
	}
	bad := LustreLike()
	bad.Stripes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero stripes accepted")
	}
	bad = LustreLike()
	bad.StripeBandwidth = -5
	if err := bad.Validate(); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestFSWriteTime(t *testing.T) {
	f := LustreLike()
	// 1 GB at 1 GB/s per stripe = 1 s of stripe occupancy.
	got := f.WriteTime(1e9)
	if got < sim.FromSeconds(0.99) || got > sim.FromSeconds(1.01) {
		t.Fatalf("WriteTime(1GB) = %v, want ~1s", got)
	}
}

func TestClusterSpeedFactorDeterministicAndBounded(t *testing.T) {
	c := DefaultNoise()
	for rank := 0; rank < 200; rank++ {
		a := c.SpeedFactor(42, rank)
		b := c.SpeedFactor(42, rank)
		if a != b {
			t.Fatalf("rank %d nondeterministic: %v vs %v", rank, a, b)
		}
		if a < 1 {
			t.Fatalf("rank %d speed factor %v < 1 (noise must only slow down)", rank, a)
		}
		if a > 2 {
			t.Fatalf("rank %d speed factor %v implausibly large", rank, a)
		}
	}
}

func TestClusterSpeedFactorsVaryAcrossRanks(t *testing.T) {
	c := DefaultNoise()
	seen := map[float64]bool{}
	for rank := 0; rank < 50; rank++ {
		seen[c.SpeedFactor(7, rank)] = true
	}
	if len(seen) < 25 {
		t.Fatalf("only %d distinct speed factors across 50 ranks", len(seen))
	}
}

func TestClusterJitterNonNegative(t *testing.T) {
	c := DefaultNoise()
	rng := sim.NewRand(3)
	for i := 0; i < 1000; i++ {
		j := c.Jitter(rng, 10*sim.Millisecond)
		if j < 0 {
			t.Fatalf("negative jitter %v", j)
		}
	}
}

func TestClusterJitterZeroForZeroDuration(t *testing.T) {
	c := DefaultNoise()
	rng := sim.NewRand(3)
	if j := c.Jitter(rng, 0); j != 0 {
		t.Fatalf("jitter on zero-length op = %v", j)
	}
}

func TestClusterDetoursScaleWithDuration(t *testing.T) {
	c := Noise{DetourEvery: sim.Millisecond, DetourLen: 10 * sim.Microsecond}
	rng := sim.NewRand(9)
	var short, long sim.Time
	for i := 0; i < 300; i++ {
		short += c.Jitter(rng, sim.Millisecond)
		long += c.Jitter(rng, 100*sim.Millisecond)
	}
	if long < short*20 {
		t.Fatalf("detour time did not scale: short=%v long=%v", short, long)
	}
}

func TestZeroClusterIsQuiet(t *testing.T) {
	var c Noise // all fields zero
	rng := sim.NewRand(1)
	if c.SpeedFactor(1, 3) != 1 {
		t.Fatal("zero cluster speed factor != 1")
	}
	if c.Jitter(rng, sim.Second) != 0 {
		t.Fatal("zero cluster jitter != 0")
	}
}

// TestJitterZeroAlloc pins the noise draw at zero allocations in every
// detour regime the workloads reach (BenchmarkJitter's means).
func TestJitterZeroAlloc(t *testing.T) {
	c := DefaultNoise()
	rng := sim.NewRand(5)
	for _, mean := range jitterMeans {
		d := sim.Time(mean * float64(c.DetourEvery))
		if n := testing.AllocsPerRun(100, func() { c.Jitter(rng, d) }); n != 0 {
			t.Errorf("Jitter at detour mean %v allocates %.0f objects, want 0", mean, n)
		}
	}
}

// jitterMeans are detour means (slice length over DetourEvery) the
// workloads draw at: a short slice, cosched's [1, 4), the Knuth regime's
// top [16, 32) that large reaches, and the normal approximation above 32.
var jitterMeans = []float64{1.0 / 512, 2, 24, 40}

// BenchmarkJitter times one per-slice noise draw of DefaultNoise at each
// of jitterMeans, the same slice length every call as a rank's repeated
// compute slices have.
func BenchmarkJitter(b *testing.B) {
	c := DefaultNoise()
	for _, mean := range jitterMeans {
		d := sim.Time(mean * float64(c.DetourEvery))
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			rng := sim.NewRand(7)
			b.ReportAllocs()
			for b.Loop() {
				c.Jitter(rng, d)
			}
		})
	}
}

// TestVerdictPurity: verdicts are pure functions of (table, src, dst,
// seq, attempt) — planned coupons match attempt 0 only, rate decisions
// are stable across calls, and a nil table always delivers.
func TestVerdictPurity(t *testing.T) {
	m := &MsgFaults{
		DropSeed: 11, DropRate: 0.5,
		DupSeed: 13, DupRate: 0.25,
		Drops: map[MsgDropKey]bool{{Src: 1, Dst: 2, Seq: 5}: true},
	}
	if v := m.Verdict(1, 2, 5, 0); v != VerdictDrop {
		t.Errorf("coupon ignored on attempt 0: %v", v)
	}
	if v := m.Verdict(1, 2, 5, 1); v == VerdictDrop &&
		m.Verdict(1, 2, 5, 1) != m.Verdict(1, 2, 5, 1) {
		t.Error("retransmission verdict unstable")
	}
	for src := 0; src < 4; src++ {
		for seq := uint64(0); seq < 16; seq++ {
			for attempt := 0; attempt < 3; attempt++ {
				a := m.Verdict(src, src+1, seq, attempt)
				b := m.Verdict(src, src+1, seq, attempt)
				if a != b {
					t.Fatalf("verdict(%d,%d,%d,%d) unstable: %v vs %v", src, src+1, seq, attempt, a, b)
				}
			}
		}
	}
	var nilTable *MsgFaults
	if v := nilTable.Verdict(0, 1, 0, 0); v != VerdictDeliver {
		t.Errorf("nil table verdict %v, want deliver", v)
	}
	if !nilTable.Empty() {
		t.Error("nil table not empty")
	}
}
