package sim

import (
	"math/rand"
	"testing"
)

// This file checks Bank against a brute-force timeline reference: the
// reference keeps, per stripe, the plain sorted list of booked intervals
// (no gap lists, no service clocks, no fault integrator state) and
// recomputes feasibility by linear scan. Random multi-job reservation
// programs — interleaved Reserve calls and IOBegin/IOEnd demand signals
// under all five policies, with or without stripe outage/derate windows
// installed — must satisfy, after every call:
//
//   - no grant starts before its request instant, and every grant's
//     occupancy equals the reference's fault integration of the
//     requested length on the granted stripe (exactly the requested
//     length on a healthy stripe);
//   - grants on one stripe never overlap (the reference re-scans the
//     stripe's whole history);
//   - Busy and JobBusy equal the reference's per-bank and per-job sums;
//   - the internal gap lists are sorted, non-overlapping, wholly at or
//     after the latest reservation instant, and lie entirely inside the
//     stripe's free space;
//   - FCFS grants equal the reference's least-loaded frontier placement
//     with the earliest fault-integrated completion (ties earlier start,
//     then lowest stripe), which degenerates to the classic least-loaded
//     frontier rule on a healthy bank;
//   - the work-conserving invariant: a job reserving while no other job
//     has signalled demand completes at the earliest instant the
//     timeline allows — the bank never holds a stripe idle against the
//     only queued demand, and never parks a booking on a faulted stripe
//     when a healthy one would finish it sooner. (Under contention the
//     WC policies pace deliberately, so the bound applies exactly when
//     the demand set says no one else is waiting.)

// refTimeline is the brute-force reference: per-stripe booked intervals
// in grant order, per-stripe fault windows, plus per-job totals.
type refTimeline struct {
	stripes  [][]gap // reusing gap as a plain interval
	faults   [][]StripeFault
	jobBusy  []Time
	bankBusy Time
}

func newRefTimeline(stripes, jobs int) *refTimeline {
	return &refTimeline{
		stripes: make([][]gap, stripes),
		faults:  make([][]StripeFault, stripes),
		jobBusy: make([]Time, jobs),
	}
}

// finish integrates a booking of dur starting at st through stripe i's
// fault windows: full rate outside windows, Rate inside, no progress
// during an outage. It re-derives the walk independently of stripeFinish
// (same truncation points, so healthy and power-of-two rates agree
// exactly).
func (r *refTimeline) finish(i int, st, dur Time) Time {
	t := st
	work := dur
	for _, f := range r.faults[i] {
		if f.End <= t || work <= 0 {
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
		if f.Rate > 0 {
			capacity := Time(float64(f.End-t) * f.Rate)
			if work <= capacity {
				return t + Time(float64(work)/f.Rate)
			}
			work -= capacity
		}
		t = f.End
	}
	return t + work
}

// earliestFit reports the earliest s >= at such that the fault-integrated
// booking [s, finish(i, s, dur)) does not overlap any booked interval on
// stripe i, by linear scan over the stripe's whole history. Integration
// is monotone in s, so jumping past an overlapped interval converges on
// the earliest feasible start.
func (r *refTimeline) earliestFit(i int, at, dur Time) Time {
	s := at
	for changed := true; changed; {
		changed = false
		en := r.finish(i, s, dur)
		for _, iv := range r.stripes[i] {
			if s < iv.end && iv.start < en { // overlap: jump past it
				s = iv.end
				changed = true
				break
			}
		}
	}
	return s
}

// bestCompletion is the bank-wide earliest fault-integrated completion:
// the minimum over stripes of finish at that stripe's earliest fit. On a
// healthy bank it is earliest-feasible-start plus dur.
func (r *refTimeline) bestCompletion(at, dur Time) Time {
	best := r.finish(0, r.earliestFit(0, at, dur), dur)
	for i := 1; i < len(r.stripes); i++ {
		if en := r.finish(i, r.earliestFit(i, at, dur), dur); en < best {
			best = en
		}
	}
	return best
}

// frontier reports the stripe's latest booked end (the FCFS frontier).
func (r *refTimeline) frontier(i int) Time {
	var f Time
	for _, iv := range r.stripes[i] {
		if iv.end > f {
			f = iv.end
		}
	}
	return f
}

// fcfsGrant is the least-loaded frontier placement the FCFS/single-job
// path uses: per stripe the candidate starts at max(at, frontier), and
// the earliest fault-integrated completion wins (ties earlier start,
// then lowest index). On a healthy bank completion order equals start
// order and this is Striped.Reserve's historical rule exactly.
func (r *refTimeline) fcfsGrant(at, dur Time) (start, end Time) {
	start = Max(at, r.frontier(0))
	end = r.finish(0, start, dur)
	for i := 1; i < len(r.stripes); i++ {
		st := Max(at, r.frontier(i))
		if en := r.finish(i, st, dur); en < end || (en == end && st < start) {
			start, end = st, en
		}
	}
	return start, end
}

// record books the grant on stripe i after asserting it overlaps nothing
// already there.
func (r *refTimeline) record(t *testing.T, op int, job, i int, start, end Time) {
	t.Helper()
	for _, iv := range r.stripes[i] {
		if start < iv.end && iv.start < end {
			t.Fatalf("op %d: grant [%v,%v) overlaps [%v,%v) on stripe %d", op, start, end, iv.start, iv.end, i)
		}
	}
	r.stripes[i] = append(r.stripes[i], gap{start, end})
	r.jobBusy[job] += end - start
	r.bankBusy += end - start
}

// checkGapLists asserts the bank's internal gap lists are sorted,
// non-overlapping, never in the past relative to at, and inside free
// space.
func checkGapLists(t *testing.T, op int, b *Bank, ref *refTimeline, at Time) {
	t.Helper()
	for i := range b.glinks {
		gaps := b.glinks[i].gaps
		for j, g := range gaps {
			if g.start >= g.end {
				t.Fatalf("op %d stripe %d: empty/inverted gap %v", op, i, g)
			}
			if g.start < at {
				t.Fatalf("op %d stripe %d: gap %v starts before the reservation instant %v", op, i, g, at)
			}
			if j > 0 && gaps[j-1].end > g.start {
				t.Fatalf("op %d stripe %d: gaps %v and %v out of order or overlapping", op, i, gaps[j-1], g)
			}
			for _, iv := range ref.stripes[i] {
				if g.start < iv.end && iv.start < g.end {
					t.Fatalf("op %d stripe %d: gap %v overlaps booked [%v,%v)", op, i, g, iv.start, iv.end)
				}
			}
		}
	}
}

// runBankProgram drives one random program against the reference. With
// faulted set, each stripe gets a random set of outage (Rate 0) and
// derate (Rate 0.5 / 0.25, exact in binary so reference and bank
// arithmetic agree bit for bit) windows installed before the first
// reservation.
func runBankProgram(t *testing.T, policy BankPolicy, stripes, jobs int, seed int64, ops int, faulted bool) {
	t.Helper()
	b := NewBank(stripes, jobs, policy)
	for j := 0; j < jobs; j++ {
		b.SetWeight(j, float64(1+(j*j)%7))
	}
	ref := newRefTimeline(stripes, jobs)
	demand := make([]int, jobs)
	rng := rand.New(rand.NewSource(seed))
	if faulted {
		rates := []float64{0, 0, 0.5, 0.25}
		for i := 0; i < stripes; i++ {
			var fs []StripeFault
			var cursor Time
			for k, n := 0, rng.Intn(4); k < n; k++ {
				cursor += Time(rng.Intn(4000))
				d := Time(rng.Intn(1200) + 50)
				fs = append(fs, StripeFault{Start: cursor, End: cursor + d, Rate: rates[rng.Intn(len(rates))]})
				cursor += d
			}
			if len(fs) > 0 {
				b.SetStripeFaults(i, fs)
				ref.faults[i] = fs
			}
		}
	}
	var at Time
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 2: // demand signal up
			j := rng.Intn(jobs)
			b.IOBegin(j, at)
			demand[j]++
		case k < 4: // demand signal down, when one is open
			j := rng.Intn(jobs)
			if demand[j] > 0 {
				b.IOEnd(j, at)
				demand[j]--
			}
		default:
			at += Time(rng.Intn(400))
			dur := Time(rng.Intn(900) + 1)
			job := rng.Intn(jobs)
			soleDemander := true
			for j := 0; j < jobs; j++ {
				if j != job && demand[j] > 0 {
					soleDemander = false
				}
			}
			wantWCEnd := ref.bestCompletion(at, dur)
			wantFCFSStart, wantFCFSEnd := ref.fcfsGrant(at, dur)
			start, end := b.Reserve(job, at, dur)
			if start < at {
				t.Fatalf("op %d: grant starts at %v before request instant %v", op, start, at)
			}
			if b.lastStripe < 0 || b.lastStripe >= stripes {
				t.Fatalf("op %d: lastStripe %d outside bank width %d", op, b.lastStripe, stripes)
			}
			if want := ref.finish(b.lastStripe, start, dur); end != want {
				t.Fatalf("op %d: grant [%v,%v) on stripe %d, reference integrates %v of work there to %v",
					op, start, end, b.lastStripe, dur, want)
			}
			if (policy == BankFCFS || jobs == 1) && (start != wantFCFSStart || end != wantFCFSEnd) {
				t.Fatalf("op %d: FCFS grant [%v,%v), reference least-loaded frontier [%v,%v)",
					op, start, end, wantFCFSStart, wantFCFSEnd)
			}
			if policy.workConserving() && jobs > 1 && soleDemander && end != wantWCEnd {
				t.Fatalf("op %d: sole demanding job %d granted [%v,%v), but the timeline could finish its %v request by %v — stripe left idle against queued demand",
					op, job, start, end, dur, wantWCEnd)
			}
			ref.record(t, op, job, b.lastStripe, start, end)
			checkGapLists(t, op, b, ref, at)
		}
	}
	if b.Busy() != ref.bankBusy {
		t.Fatalf("Busy %v != reference %v", b.Busy(), ref.bankBusy)
	}
	var sum Time
	for j := 0; j < jobs; j++ {
		if b.JobBusy(j) != ref.jobBusy[j] {
			t.Fatalf("JobBusy(%d) %v != reference %v", j, b.JobBusy(j), ref.jobBusy[j])
		}
		sum += b.JobBusy(j)
	}
	if sum != b.Busy() {
		t.Fatalf("sum of JobBusy %v != Busy %v", sum, b.Busy())
	}
}

var allBankPolicies = []BankPolicy{BankFCFS, BankFair, BankWeighted, BankFairWC, BankWeightedWC}

// TestBankPropertyVsBruteForce sweeps random reservation programs over
// every policy and several bank shapes, healthy and fault-ridden.
func TestBankPropertyVsBruteForce(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		for _, policy := range allBankPolicies {
			for _, shape := range []struct{ stripes, jobs int }{{1, 1}, {1, 2}, {1, 3}, {3, 3}, {4, 2}, {2, 5}} {
				for seed := int64(0); seed < 6; seed++ {
					runBankProgram(t, policy, shape.stripes, shape.jobs, seed*31+int64(policy), 400, faulted)
				}
			}
		}
	}
}

// FuzzBank feeds fuzzer-chosen program shapes through the same checks.
func FuzzBank(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(3), false)
	f.Add(int64(42), uint8(4), uint8(4), uint8(5), true)
	f.Add(int64(-7), uint8(0), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, policy, stripes, jobs uint8, faulted bool) {
		p := allBankPolicies[int(policy)%len(allBankPolicies)]
		s := int(stripes)%5 + 1
		j := int(jobs)%5 + 1
		runBankProgram(t, p, s, j, seed, 300, faulted)
	})
}

// runShadowProgram drives a bank under policy, shadowing every policy,
// and a separate bank per policy through one random program of Reserve
// calls and demand signals. After every grant, the shadow under q must
// still be attached exactly when q's own bank has granted every slot so
// far as the real bank did. Shadows are attached before the weights and
// faults are installed on even seeds (forwarding) and after them on odd
// ones (copying). It returns how many shadows of other policies
// survived and how many were dropped.
func runShadowProgram(t *testing.T, policy BankPolicy, stripes, jobs int, seed int64, ops int, faulted bool) (kept, dropped int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBank(stripes, jobs, policy)
	own := make([]*Bank, len(allBankPolicies))
	for i, q := range allBankPolicies {
		own[i] = NewBank(stripes, jobs, q)
	}
	shadows := make([]*Bank, len(allBankPolicies))
	attach := func() {
		for i, q := range allBankPolicies {
			shadows[i] = b.Shadow(q)
		}
	}
	if seed%2 == 0 {
		attach()
	}
	for j := 0; j < jobs; j++ {
		w := float64(1 + (j*j)%7)
		b.SetWeight(j, w)
		for _, o := range own {
			o.SetWeight(j, w)
		}
	}
	if faulted {
		for i := 0; i < stripes; i++ {
			fs := []StripeFault{{Start: Time(rng.Intn(3000)), Rate: []float64{0, 0.5}[rng.Intn(2)]}}
			fs[0].End = fs[0].Start + Time(rng.Intn(1500)+50)
			b.SetStripeFaults(i, fs)
			for _, o := range own {
				o.SetStripeFaults(i, fs)
			}
		}
	}
	if seed%2 != 0 {
		attach()
	}
	agree := make([]bool, len(allBankPolicies))
	for i := range agree {
		agree[i] = true
	}
	demand := make([]int, jobs)
	var at Time
	for op := 0; op < ops; op++ {
		j := rng.Intn(jobs)
		switch k := rng.Intn(10); {
		case k < 2:
			b.IOBegin(j, at)
			for _, o := range own {
				o.IOBegin(j, at)
			}
			demand[j]++
		case k < 4:
			if demand[j] > 0 {
				b.IOEnd(j, at)
				for _, o := range own {
					o.IOEnd(j, at)
				}
				demand[j]--
			}
		default:
			at += Time(rng.Intn(400))
			dur := Time(rng.Intn(900) + 1)
			start, end := b.Reserve(j, at, dur)
			for i, o := range own {
				if s0, e0 := o.Reserve(j, at, dur); s0 != start || e0 != end {
					agree[i] = false
				}
				if got := b.Reproduced(shadows[i]); got != agree[i] {
					t.Fatalf("%v bank, seed %d, op %d: shadow under %v attached %v, its own bank agrees %v",
						policy, seed, op, allBankPolicies[i], got, agree[i])
				}
			}
		}
	}
	for i, q := range allBankPolicies {
		switch {
		case q == policy:
		case agree[i]:
			kept++
		default:
			dropped++
		}
	}
	return kept, dropped
}

// TestBankShadowMatchesIndependentBank: a shadow is a certificate, so it
// must survive exactly as long as a bank under its policy, fed the same
// calls on its own, would have granted the same slots — on healthy and
// faulted banks of every shape — and the programs must both keep and
// drop shadows.
func TestBankShadowMatchesIndependentBank(t *testing.T) {
	var kept, dropped int
	for _, faulted := range []bool{false, true} {
		for _, policy := range allBankPolicies {
			for _, shape := range []struct{ stripes, jobs int }{{1, 1}, {1, 2}, {4, 2}, {2, 3}, {8, 2}} {
				for seed := int64(0); seed < 6; seed++ {
					ops := 10 + int(seed)*40
					k, d := runShadowProgram(t, policy, shape.stripes, shape.jobs, seed, ops, faulted)
					kept += k
					dropped += d
				}
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("programs do not separate the policies: %d shadows kept, %d dropped", kept, dropped)
	}
}

// TestBankShadowDroppedByReset: shadows are per-run state like faults and
// the shard attachment, so Reset detaches them.
func TestBankShadowDroppedByReset(t *testing.T) {
	b := NewBank(2, 2, BankFCFS)
	s := b.Shadow(BankFair)
	b.Reserve(0, 0, 10)
	if !b.Reproduced(s) {
		t.Fatal("shadow dropped on the first grant of an idle bank")
	}
	b.Reset()
	if b.Reproduced(s) {
		t.Error("Reset kept the shadow attached")
	}
}

// TestBankShadowComparesStart: a grant is its whole slot. Under an outage
// two policies can start the same request at different instants that
// both finish when the outage lifts; the world reads only the end, but
// the bank's busy time reads the start, so the shadow must drop there.
func TestBankShadowComparesStart(t *testing.T) {
	b := NewBank(1, 2, BankFCFS)
	s := b.Shadow(BankFair)
	b.SetStripeFaults(0, []StripeFault{{Start: 100, End: 500}})
	if st, en := b.Reserve(0, 0, 100); st != 0 || en != 100 || !b.Reproduced(s) {
		t.Fatalf("first grant [%v,%v), shadow attached %v; want [0,100) on both", st, en, b.Reproduced(s))
	}
	// FCFS starts at the frontier, 100, inside the outage; fair paces job
	// 0 to its service clock, 200. Both finish at 600.
	if st, en := b.Reserve(0, 100, 100); st != 100 || en != 600 {
		t.Fatalf("second grant [%v,%v), want [100,600)", st, en)
	}
	if b.Reproduced(s) {
		t.Errorf("shadow under fair survived a grant that started at another instant (busy %v here, %v there)", b.JobBusy(0), s.JobBusy(0))
	}
}
