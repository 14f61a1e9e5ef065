package sim

import "fmt"

// FaultWindow is a timed multiplicative slowdown: work performed inside
// [Start, End) progresses Factor times slower than nominal. Windows model
// discrete degradation events (a rank slowdown burst, a congested link)
// layered on top of the steady-state noise model; a campaign compiles to
// per-target window lists consulted by the cost paths.
//
// Window lists must be sorted by Start and non-overlapping — ValidateWindows
// checks the invariant — so that cost integration is a single forward walk
// and a pure function of (start instant, nominal duration, window list).
type FaultWindow struct {
	Start, End Time
	// Factor is the slowdown multiplier inside the window; it must be
	// >= 1 (faults only ever slow things down).
	Factor float64
}

// ValidateWindows checks that ws is sorted by Start, non-overlapping, with
// positive extents and factors >= 1.
func ValidateWindows(ws []FaultWindow) error {
	for i, w := range ws {
		if w.End <= w.Start {
			return fmt.Errorf("sim: fault window %d has non-positive extent [%v, %v)", i, w.Start, w.End)
		}
		if w.Factor < 1 {
			return fmt.Errorf("sim: fault window %d has factor %v < 1", i, w.Factor)
		}
		if i > 0 && w.Start < ws[i-1].End {
			return fmt.Errorf("sim: fault window %d starting %v overlaps previous window ending %v", i, w.Start, ws[i-1].End)
		}
	}
	return nil
}

// StretchThrough reports the wall-clock duration of d of nominal work
// starting at now, integrated through the slowdown windows ws: outside
// every window work progresses at nominal rate, inside a window at
// 1/Factor of it. The result is a pure function of its arguments — no
// random draws — so faulted trajectories stay bit-identical across
// repeated runs.
func StretchThrough(now, d Time, ws []FaultWindow) Time {
	if d <= 0 || len(ws) == 0 {
		return d
	}
	t := now
	work := d
	for _, w := range ws {
		if w.End <= t {
			continue
		}
		if w.Start > t {
			free := w.Start - t
			if work <= free {
				return t + work - now
			}
			t = w.Start
			work -= free
		}
		span := w.End - t
		capacity := Time(float64(span) / w.Factor)
		if work <= capacity {
			return t + Time(float64(work)*w.Factor) - now
		}
		work -= capacity
		t = w.End
	}
	return t + work - now
}

// CrashEvent is one crash-stop failure in a campaign: the runnable
// standing in for rank Target is killed at At (Engine.Kill) and
// respawned Restart later. Crash schedules must be sorted by (At,
// Target); the mpi layer turns them into deterministic kill and restart
// events at fixed (t, seq) positions (see the failure/recovery contract
// in the package comment).
type CrashEvent struct {
	At      Time
	Target  int
	Restart Time
}

// StripeFault is a timed degradation of one bank stripe: inside
// [Start, End) the stripe transfers at Rate times its nominal throughput.
// Rate 0 is a full outage — a booking straddling the window stalls and
// resumes when it lifts — and 0 < Rate < 1 is a derate (a half-rate
// stripe doubles the occupancy of the overlapping portion of a booking).
//
// Per-stripe fault lists must be sorted by Start and non-overlapping
// (ValidateStripeFaults), mirroring the FaultWindow contract.
type StripeFault struct {
	Start, End Time
	// Rate is the remaining throughput fraction inside the window:
	// 0 <= Rate < 1, with 0 meaning a full outage.
	Rate float64
}

// ValidateStripeFaults checks that fs is sorted by Start, non-overlapping,
// with positive extents and rates in [0, 1).
func ValidateStripeFaults(fs []StripeFault) error {
	for i, f := range fs {
		if f.End <= f.Start {
			return fmt.Errorf("sim: stripe fault %d has non-positive extent [%v, %v)", i, f.Start, f.End)
		}
		if f.Rate < 0 || f.Rate >= 1 {
			return fmt.Errorf("sim: stripe fault %d has rate %v outside [0, 1)", i, f.Rate)
		}
		if i > 0 && f.Start < fs[i-1].End {
			return fmt.Errorf("sim: stripe fault %d starting %v overlaps previous fault ending %v", i, f.Start, fs[i-1].End)
		}
	}
	return nil
}

// stripeFinish reports when a booking of dur nominal transfer time
// starting at st on a stripe carrying faults fs completes: portions
// overlapping a derate window progress at Rate, portions overlapping an
// outage make no progress until the window lifts. Like StretchThrough it
// is a pure function, which is what keeps faulted bank placement
// deterministic.
func stripeFinish(st, dur Time, fs []StripeFault) Time {
	if dur <= 0 || len(fs) == 0 {
		return st + dur
	}
	t := st
	work := dur
	for _, f := range fs {
		if f.End <= t {
			continue
		}
		if f.Start > t {
			free := f.Start - t
			if work <= free {
				return t + work
			}
			t = f.Start
			work -= free
		}
		span := f.End - t
		if f.Rate > 0 {
			capacity := Time(float64(span) * f.Rate)
			if work <= capacity {
				return t + Time(float64(work)/f.Rate)
			}
			work -= capacity
		}
		t = f.End
	}
	return t + work
}
