package pic

import (
	"math"
	"testing"
	"testing/quick"
)

// uniformField is a constant E and B field, the reference field of these tests.
type uniformField struct{ E, B Vec3 }

// EB returns the uniform field values.
func (f uniformField) EB(Vec3) (Vec3, Vec3) { return f.E, f.B }

func TestVec3Algebra(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) || b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("add/sub broken")
	}
	if a.Dot(b) != 32 {
		t.Fatal("dot broken")
	}
	if a.Cross(b) != (Vec3{-3, 6, -3}) {
		t.Fatal("cross broken")
	}
}

func TestBorisConservesEnergyInPureB(t *testing.T) {
	// With E = 0 the Boris rotation conserves kinetic energy exactly
	// (up to floating point), no matter how many steps.
	p := Particle{Vel: Vec3{1, 0.5, -0.25}, QoverM: -1}
	f := uniformField{B: Vec3{0, 0, 2}}
	e0 := KineticEnergy(p)
	for i := 0; i < 10_000; i++ {
		BorisPush(&p, f, 0.05)
	}
	e1 := KineticEnergy(p)
	if rel := math.Abs(e1-e0) / e0; rel > 1e-9 {
		t.Fatalf("energy drifted by %v in pure B field", rel)
	}
}

func TestBorisGyroRadius(t *testing.T) {
	// A particle with speed v perpendicular to B gyrates on a circle of
	// radius r = v / (|q/m| B).
	v, b := 1.0, 2.0
	p := Particle{Pos: Vec3{}, Vel: Vec3{X: v}, QoverM: -1}
	f := uniformField{B: Vec3{Z: b}}
	dt := 0.001
	minX, maxX := 0.0, 0.0
	for i := 0; i < 100_000; i++ {
		BorisPush(&p, f, dt)
		minX = math.Min(minX, p.Pos.X)
		maxX = math.Max(maxX, p.Pos.X)
	}
	diameter := maxX - minX
	want := 2 * v / b
	if math.Abs(diameter-want)/want > 0.01 {
		t.Fatalf("gyro diameter = %v, want %v", diameter, want)
	}
}

func TestBorisEAcceleration(t *testing.T) {
	// Pure E field: dv/dt = (q/m) E.
	p := Particle{QoverM: 2}
	f := uniformField{E: Vec3{X: 3}}
	for i := 0; i < 1000; i++ {
		BorisPush(&p, f, 0.001)
	}
	// After t=1: v = q/m * E * t = 6.
	if math.Abs(p.Vel.X-6) > 1e-9 {
		t.Fatalf("vx = %v, want 6", p.Vel.X)
	}
}

func TestBorisExBDrift(t *testing.T) {
	// Crossed fields: guiding center drifts at v_d = E x B / B^2,
	// independent of charge sign.
	f := uniformField{E: Vec3{Y: 0.2}, B: Vec3{Z: 1}}
	wantVx := 0.2 // (E x B)/B^2 = (0.2*1)/1 in +x
	for _, qm := range []float64{-1, 1} {
		p := Particle{Vel: Vec3{}, QoverM: qm}
		steps := 200_000
		dt := 0.005
		for i := 0; i < steps; i++ {
			BorisPush(&p, f, dt)
		}
		avgVx := p.Pos.X / (float64(steps) * dt)
		if math.Abs(avgVx-wantVx) > 0.01 {
			t.Fatalf("q/m=%v drift vx = %v, want %v", qm, avgVx, wantVx)
		}
	}
}

func TestHarrisFieldReverses(t *testing.T) {
	f := HarrisField{B0: 1, Y0: 0.5, W: 0.1}
	_, bLow := f.EB(Vec3{Y: 0.1})
	_, bMid := f.EB(Vec3{Y: 0.5})
	_, bHigh := f.EB(Vec3{Y: 0.9})
	if bLow.X >= 0 || bHigh.X <= 0 {
		t.Fatalf("field does not reverse: %v .. %v", bLow.X, bHigh.X)
	}
	if math.Abs(bMid.X) > 1e-12 {
		t.Fatalf("field not zero at sheet center: %v", bMid.X)
	}
}

func TestDomainContainsAndExit(t *testing.T) {
	d := Domain{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
	if !d.Contains(Vec3{0.5, 0.5, 0.5}) || d.Contains(Vec3{1, 0.5, 0.5}) {
		t.Fatal("Contains broken")
	}
}

func TestLoadHarrisConcentratesInSheet(t *testing.T) {
	d := Domain{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
	parts := LoadHarris(d, 4000, 0.12, 0.2, 0.05, 7)
	if len(parts) != 4000 {
		t.Fatalf("loaded %d particles", len(parts))
	}
	center, edge := 0, 0
	for _, p := range parts {
		switch {
		case p.Pos.Y > 0.4 && p.Pos.Y < 0.6:
			center++
		case p.Pos.Y < 0.2 || p.Pos.Y > 0.8:
			edge++
		}
	}
	if center < edge {
		t.Fatalf("no sheet concentration: center band %d vs edges %d", center, edge)
	}
	for _, p := range parts {
		if !d.Contains(p.Pos) {
			t.Fatalf("particle loaded outside domain: %+v", p.Pos)
		}
	}
}

func TestLoadHarrisDeterministic(t *testing.T) {
	d := Domain{Lo: Vec3{}, Hi: Vec3{1, 1, 1}}
	a := LoadHarris(d, 50, 0.12, 0.2, 0.05, 11)
	b := LoadHarris(d, 50, 0.12, 0.2, 0.05, 11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LoadHarris nondeterministic")
		}
	}
}

func TestMoveAllPartitions(t *testing.T) {
	d := Domain{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
	parts := []Particle{
		{Pos: Vec3{0.5, 0.5, 0.5}, Vel: Vec3{X: 100}, QoverM: -1}, // will exit
		{Pos: Vec3{0.5, 0.5, 0.5}, Vel: Vec3{X: 0.001}, QoverM: -1},
	}
	stay, leave := MoveAll(parts, uniformField{}, 0.01, d)
	if len(stay) != 1 || len(leave) != 1 {
		t.Fatalf("stay=%d leave=%d", len(stay), len(leave))
	}
	if !d.Contains(stay[0].Pos) {
		t.Fatal("stayer outside domain")
	}
	if d.Contains(leave[0].Pos) {
		t.Fatal("leaver inside domain")
	}
}

// Property: Boris push with zero fields is ballistic motion.
func TestBallisticProperty(t *testing.T) {
	f := func(vx, vy, vz int8, steps uint8) bool {
		v := Vec3{float64(vx), float64(vy), float64(vz)}
		p := Particle{Vel: v, QoverM: -1}
		n := int(steps)%50 + 1
		dt := 0.01
		for i := 0; i < n; i++ {
			BorisPush(&p, uniformField{}, dt)
		}
		want := v.Scale(float64(n) * dt)
		d := p.Pos.Sub(want)
		return math.Sqrt(d.Dot(d)) < 1e-9 && p.Vel == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
