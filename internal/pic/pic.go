// Package pic is a real (miniature) particle-in-cell substrate standing in
// for iPIC3D (paper Section IV-D): particles with positions and
// velocities, the Boris pusher for trajectories in electromagnetic fields,
// and subdomain-exit detection. The at-scale experiments cost these
// kernels through the simulator; the tests here verify the physics (energy
// conservation, gyro motion, drifts) for real.
package pic

import (
	"math"
	"math/rand"
)

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Cross returns a × b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Dot returns a · b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Particle is one computational particle.
type Particle struct {
	Pos Vec3
	Vel Vec3
	// QoverM is the charge-to-mass ratio.
	QoverM float64
}

// Field samples the electromagnetic field at a position.
type Field interface {
	// EB returns the electric and magnetic field at pos.
	EB(pos Vec3) (e Vec3, b Vec3)
}

// HarrisField is the GEM-challenge magnetic configuration: Bx reverses
// across a current sheet at y = Y0 with half-width W, i.e.
// Bx(y) = B0 * tanh((y-Y0)/W).
type HarrisField struct {
	B0 float64
	Y0 float64
	W  float64
}

// EB evaluates the Harris-sheet field (E = 0).
func (f HarrisField) EB(pos Vec3) (Vec3, Vec3) {
	return Vec3{}, Vec3{X: f.B0 * math.Tanh((pos.Y-f.Y0)/f.W)}
}

// BorisPush advances one particle by dt using the Boris rotation scheme —
// the standard, energy-conserving PIC mover that iPIC3D's particle mover
// is built around. It mutates p in place.
func BorisPush(p *Particle, f Field, dt float64) {
	e, b := f.EB(p.Pos)
	qmdt2 := p.QoverM * dt / 2

	// Half electric acceleration.
	vMinus := p.Vel.Add(e.Scale(qmdt2))
	// Magnetic rotation.
	t := b.Scale(qmdt2)
	t2 := t.Dot(t)
	s := t.Scale(2 / (1 + t2))
	vPrime := vMinus.Add(vMinus.Cross(t))
	vPlus := vMinus.Add(vPrime.Cross(s))
	// Second half electric acceleration.
	p.Vel = vPlus.Add(e.Scale(qmdt2))
	// Position update.
	p.Pos = p.Pos.Add(p.Vel.Scale(dt))
}

// KineticEnergy returns m/2 * v^2 per unit mass (QoverM carries the charge
// scaling, so this is v^2/2).
func KineticEnergy(p Particle) float64 { return 0.5 * p.Vel.Dot(p.Vel) }

// Domain is an axis-aligned box, used as one process's subdomain.
type Domain struct {
	Lo, Hi Vec3
}

// Contains reports whether pos is inside the half-open box [Lo, Hi).
func (d Domain) Contains(pos Vec3) bool {
	return pos.X >= d.Lo.X && pos.X < d.Hi.X &&
		pos.Y >= d.Lo.Y && pos.Y < d.Hi.Y &&
		pos.Z >= d.Lo.Z && pos.Z < d.Hi.Z
}

// LoadHarris samples n particles over dom with a Harris-sheet density
// profile across Y (matching workload.ParticleField) and a thermal
// velocity spread vth. Deterministic in seed.
func LoadHarris(dom Domain, n int, sheetWidth, background, vth float64, seed int64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	ext := dom.Hi.Sub(dom.Lo)
	out := make([]Particle, 0, n)
	maxDensity := 1.0
	for len(out) < n {
		// Rejection-sample y against the Harris profile.
		y := rng.Float64()
		s := 1 / math.Cosh((y-0.5)/sheetWidth)
		density := background + (1-background)*s*s
		if rng.Float64()*maxDensity > density {
			continue
		}
		out = append(out, Particle{
			Pos: Vec3{
				X: dom.Lo.X + rng.Float64()*ext.X,
				Y: dom.Lo.Y + y*ext.Y,
				Z: dom.Lo.Z + rng.Float64()*ext.Z,
			},
			Vel: Vec3{
				X: rng.NormFloat64() * vth,
				Y: rng.NormFloat64() * vth,
				Z: rng.NormFloat64() * vth,
			},
			QoverM: -1,
		})
	}
	return out
}

// MoveAll pushes every particle and partitions them into stayers and
// leavers relative to dom — the per-step kernel whose leavers feed the
// particle-communication operation.
func MoveAll(parts []Particle, f Field, dt float64, dom Domain) (stay, leave []Particle) {
	stay = parts[:0]
	for i := range parts {
		BorisPush(&parts[i], f, dt)
		if dom.Contains(parts[i].Pos) {
			stay = append(stay, parts[i])
		} else {
			leave = append(leave, parts[i])
		}
	}
	return stay, leave
}
