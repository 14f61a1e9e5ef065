package netmodel

import (
	"math/rand"
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

func TestNoneNoise(t *testing.T) {
	var n None
	if n.SpeedFactor(1, 5) != 1 {
		t.Fatal("None speed factor != 1")
	}
	rng := rand.New(rand.NewSource(1))
	if n.Jitter(rng, sim.Second) != 0 {
		t.Fatal("None jitter != 0")
	}
}

func TestClusterSpeedFactorDeterministicAndBounded(t *testing.T) {
	c := DefaultCluster()
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
	c := DefaultCluster()
	seen := map[float64]bool{}
	for rank := 0; rank < 50; rank++ {
		seen[c.SpeedFactor(7, rank)] = true
	}
	if len(seen) < 25 {
		t.Fatalf("only %d distinct speed factors across 50 ranks", len(seen))
	}
}

func TestClusterJitterNonNegative(t *testing.T) {
	c := DefaultCluster()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		j := c.Jitter(rng, 10*sim.Millisecond)
		if j < 0 {
			t.Fatalf("negative jitter %v", j)
		}
	}
}

func TestClusterJitterZeroForZeroDuration(t *testing.T) {
	c := DefaultCluster()
	rng := rand.New(rand.NewSource(3))
	if j := c.Jitter(rng, 0); j != 0 {
		t.Fatalf("jitter on zero-length op = %v", j)
	}
}

func TestClusterDetoursScaleWithDuration(t *testing.T) {
	c := Cluster{DetourEvery: sim.Millisecond, DetourLen: 10 * sim.Microsecond}
	rng := rand.New(rand.NewSource(9))
	var short, long sim.Time
	for i := 0; i < 300; i++ {
		short += c.Jitter(rng, sim.Millisecond)
		long += c.Jitter(rng, 100*sim.Millisecond)
	}
	if long < short*20 {
		t.Fatalf("detour time did not scale: short=%v long=%v", short, long)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, lambda := range []float64{0.5, 4, 40, 200} {
		n := 3000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(rng, lambda)
		}
		mean := float64(sum) / float64(n)
		if mean < lambda*0.9 || mean > lambda*1.1 {
			t.Fatalf("poisson(%v) sample mean = %v", lambda, mean)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("poisson of non-positive lambda should be 0")
	}
}

func TestZeroClusterIsQuiet(t *testing.T) {
	var c Cluster // all fields zero
	rng := rand.New(rand.NewSource(1))
	if c.SpeedFactor(1, 3) != 1 {
		t.Fatal("zero cluster speed factor != 1")
	}
	if c.Jitter(rng, sim.Second) != 0 {
		t.Fatal("zero cluster jitter != 0")
	}
}
