package sim

import "fmt"

// BankPolicy selects how a Bank arbitrates stripe time between jobs.
//
// The bank is a timeline-reservation resource: callers learn their slot
// immediately and never queue. Inter-job arbitration therefore works the
// way a storage gateway's QoS engine does (Lustre's token-bucket NRS
// policies are the production example): an over-share job's reservations
// are paced onto the timeline with gaps, and under-share jobs' requests
// fill those gaps. All policies are deterministic pure functions of the
// reservation call sequence — and, for the work-conserving policy, of
// the interleaved demand-signal sequence (IOBegin/IOEnd) — which the
// engine's (t, seq) event order fixes.
type BankPolicy int

const (
	// BankFCFS grants reservations in pure arrival order on the
	// least-loaded stripe, with no pacing. Every lone world books under
	// it; it is also the baseline inter-job policy (no isolation: a hog
	// job's booked backlog delays everyone behind it).
	BankFCFS BankPolicy = iota
	// BankFair is equal-share pacing: with k jobs registered, each job's
	// sustained bookings may occupy at most 1/k of the timeline, so a
	// hog's reservations are spread out with idle holes and a light job's
	// requests slot into the holes instead of queueing behind the hog's
	// whole backlog. Shares are static (token-bucket semantics): a job
	// coming off idle gets one unpaced burst, then pacing resumes, and a
	// sustained hog stays paced even while the other jobs underuse their
	// shares — the deliberate, non-work-conserving trade real QoS engines
	// (Lustre's TBF) make for isolation.
	BankFair
	// BankFairWC is BankFair made work-conserving through demand
	// signalling: jobs bracket their file operations with IOBegin/IOEnd,
	// and a reserving job's entitlement is recomputed per grant as an
	// equal split over the currently-demanding jobs only — idle jobs'
	// unused shares are redistributed instead of left as holes nobody
	// fills. A job reserving while no other job has signalled demand is
	// not paced at all (and its accumulated pacing debt is forgiven), so
	// the bank never leaves a stripe idle while any registered job has
	// queued demand. The isolation guarantee weakens to the classic
	// work-conserving bound: a job whose demand is continuous keeps its
	// full static share, while a job arriving after an idle period can
	// queue behind the grants already booked at its arrival (the
	// in-flight quanta) — never behind pre-reserved future headroom.
	BankFairWC
)

// String names the policy as the cosched experiment series do.
func (p BankPolicy) String() string {
	switch p {
	case BankFCFS:
		return "fcfs"
	case BankFair:
		return "fair"
	case BankFairWC:
		return "fair-wc"
	default:
		return fmt.Sprintf("BankPolicy(%d)", int(p))
	}
}

// workConserving reports whether the policy redistributes idle
// entitlement over demanding jobs.
func (p BankPolicy) workConserving() bool {
	return p == BankFairWC
}

// gap is an unreserved hole in a stripe's timeline, left by pacing an
// over-share job's reservation past the stripe's previous frontier.
type gap struct {
	start, end Time
}

// stripe is one stripe's timeline: the end of its latest tail booking,
// the stripe time booked on it, and the pacing gaps left behind that
// frontier. Gaps are kept sorted by start and non-overlapping;
// reservation instants only move forward in virtual time, so after every
// Reserve call the surviving gaps lie entirely at or after the
// reservation instant — expired gaps are dropped and a gap straddling the
// instant is trimmed to its usable future part. Only pacing creates gaps,
// so under BankFCFS and on a single-job bank the list stays empty.
type stripe struct {
	nextFree, busy Time
	gaps           []gap
}

// Bank is a striped file system shared by one or more jobs (worlds): its
// stripes' timelines plus per-job pacing state and an inter-job
// arbitration policy. Every grant, paced or not, is made by one
// placement rule (place); a lone world books under BankFCFS, whose
// grants go to the stripe finishing the request earliest.
type Bank struct {
	stripes []stripe
	policy  BankPolicy

	// svc is each job's virtual service clock: the earliest instant its
	// next reservation may start. It advances by dur/share per grant and
	// rebaselines to the request instant when the job is under its share
	// (idle periods refill its burst credit).
	svc []Time
	// total is each job's lifetime reserved stripe time, for reporting.
	total []Time

	// demand is each job's count of in-flight file operations, fed by
	// IOBegin/IOEnd. A job with a positive count has queued I/O demand;
	// the work-conserving policy re-splits idle jobs' entitlement over
	// the demanding ones. The static policies never read it, so the
	// signalling is trajectory-neutral for them.
	demand []int
	// demandSince is the instant the job's demand count last rose from
	// zero; demandTime accumulates closed demand intervals for reporting.
	demandSince []Time
	demandTime  []Time

	// sfaults holds each stripe's degradation windows (outages and
	// derates), nil when the bank is fault-free. Faults inflate the
	// occupancy of overlapping bookings (stripeFinish); with no faults
	// every code path below reduces to the historical arithmetic, which
	// is what keeps fault-free trajectories byte-identical.
	sfaults [][]StripeFault

	// lastAt is the latest reservation instant seen, for enforcing the
	// non-decreasing contract on Reserve.
	lastAt Time
	// lastStripe is the stripe index of the most recent grant, exposed to
	// the package tests so the property suite can shadow per-stripe
	// timelines without re-deriving placement.
	lastStripe int

	// shadows are the private banks under other policies that still
	// agree with every grant this bank has made (Shadow). They are
	// touched only from this bank's own methods. Reset drops them.
	shadows []*Bank
}

// NewBank creates a bank of stripes stripes arbitrated between jobs jobs
// under the given policy. Both counts must be positive.
func NewBank(stripes, jobs int, policy BankPolicy) *Bank {
	if stripes <= 0 {
		panic(fmt.Sprintf("sim: Bank needs at least one stripe, got %d", stripes))
	}
	if jobs <= 0 {
		panic(fmt.Sprintf("sim: Bank needs at least one job, got %d", jobs))
	}
	b := &Bank{
		stripes:     make([]stripe, stripes),
		policy:      policy,
		svc:         make([]Time, jobs),
		total:       make([]Time, jobs),
		demand:      make([]int, jobs),
		demandSince: make([]Time, jobs),
		demandTime:  make([]Time, jobs),
	}
	return b
}

// Shadow attaches a private bank under policy p that receives every
// Reserve, IOBegin, IOEnd and SetStripeFaults call this bank receives,
// starting from a copy of its stripe faults, and
// compares each of its grants with this bank's. The first grant whose
// (start, end) differs drops the shadow for the rest of the run.
//
// No world reads the policy: it reaches a run only through the slots
// Reserve grants, and the demand signals do not depend on it. So while
// the shadow survives, a run whose bank had policy p would have made the
// same calls and received the same grants, and its outcome is this run's
// (Reproduced). Attach shadows before the run's first reservation or
// demand signal; Reset drops them.
func (b *Bank) Shadow(p BankPolicy) *Bank {
	s := NewBank(len(b.stripes), len(b.svc), p)
	for i, fs := range b.sfaults {
		if len(fs) > 0 {
			s.SetStripeFaults(i, fs)
		}
	}
	b.shadows = append(b.shadows, s)
	return s
}

// Reproduced reports whether shadow s has granted every reservation so
// far exactly as this bank did.
func (b *Bank) Reproduced(s *Bank) bool {
	for _, live := range b.shadows {
		if live == s {
			return true
		}
	}
	return false
}

// Width reports the number of stripes.
func (b *Bank) Width() int { return len(b.stripes) }

// Jobs reports the number of jobs the bank arbitrates between.
func (b *Bank) Jobs() int { return len(b.svc) }

// Busy reports the total reserved stripe time across all stripes.
func (b *Bank) Busy() Time {
	var total Time
	for i := range b.stripes {
		total += b.stripes[i].busy
	}
	return total
}

// JobBusy reports the total stripe time job has reserved over the bank's
// lifetime.
func (b *Bank) JobBusy(job int) Time { return b.total[job] }

// IOBegin records that one of job's processes entered a file operation
// at virtual time at: the job has queued I/O demand until the matching
// IOEnd. Demand is a per-job reference count, so concurrent operations
// from several ranks of one job nest. Signalling is pure bookkeeping —
// it schedules no events and moves no clocks — so it never perturbs
// trajectories; only the work-conserving policy reads it when granting.
func (b *Bank) IOBegin(job int, at Time) {
	if b.demand[job] == 0 {
		b.demandSince[job] = at
	}
	b.demand[job]++
	for _, s := range b.shadows {
		s.IOBegin(job, at)
	}
}

// IOEnd closes the demand interval opened by the matching IOBegin at
// virtual time at. Ending demand that was never signalled is a
// programming error.
func (b *Bank) IOEnd(job int, at Time) {
	if b.demand[job] <= 0 {
		panic(fmt.Sprintf("sim: Bank IOEnd without matching IOBegin for job %d at %v", job, at))
	}
	b.demand[job]--
	if b.demand[job] == 0 {
		b.demandTime[job] += at - b.demandSince[job]
	}
	for _, s := range b.shadows {
		s.IOEnd(job, at)
	}
}

// JobDemand reports the cumulative virtual time job has spent with
// signalled I/O demand (closed IOBegin/IOEnd intervals only; an interval
// still open contributes once it closes). It is the per-job demand
// accounting the cluster layer reports alongside JobBusy.
func (b *Bank) JobDemand(job int) Time { return b.demandTime[job] }

// SetStripeFaults installs stripe's degradation windows for the current
// run. The windows must be sorted and non-overlapping
// (ValidateStripeFaults); passing an empty list clears the stripe's
// faults. Fault windows are per-run configuration: Reset drops them, so a
// pooled bank must have them re-applied before reuse.
func (b *Bank) SetStripeFaults(stripe int, fs []StripeFault) {
	if stripe < 0 || stripe >= len(b.stripes) {
		panic(fmt.Sprintf("sim: SetStripeFaults on stripe %d of %d", stripe, len(b.stripes)))
	}
	if err := ValidateStripeFaults(fs); err != nil {
		panic(err.Error())
	}
	for _, s := range b.shadows {
		s.SetStripeFaults(stripe, fs)
	}
	if len(fs) == 0 {
		if b.sfaults != nil {
			b.sfaults[stripe] = nil
		}
		return
	}
	if b.sfaults == nil {
		b.sfaults = make([][]StripeFault, len(b.stripes))
	}
	b.sfaults[stripe] = append([]StripeFault(nil), fs...)
}

// slotEnd reports when a booking of dur starting at st on stripe i
// completes, accounting for the stripe's fault windows. Fault-free
// stripes finish at st+dur exactly.
func (b *Bank) slotEnd(i int, st, dur Time) Time {
	if b.sfaults == nil {
		return st + dur
	}
	return stripeFinish(st, dur, b.sfaults[i])
}

// Reset clears all reservations, pacing, demand and fault state,
// returning the bank to its initial state for reuse across simulation
// runs. Fault windows are per-run campaign state: the owner re-applies
// them via SetStripeFaults.
func (b *Bank) Reset() {
	b.sfaults = nil
	for i := range b.stripes {
		b.stripes[i] = stripe{gaps: b.stripes[i].gaps[:0]}
	}
	for i := range b.svc {
		b.svc[i] = 0
		b.total[i] = 0
		b.demand[i] = 0
		b.demandSince[i] = 0
		b.demandTime[i] = 0
	}
	b.lastAt = 0
	b.lastStripe = 0
	b.shadows = nil
}

// share reports job's timeline share: one over the number of jobs it
// competes with. Under the static policies every registered job
// competes. Under the work-conserving one only job itself (it is asking
// right now, whether or not its demand hook fired) and the
// currently-demanding jobs do, so idle jobs' entitlement is re-split
// equally over the demanding ones and the result is in (0, 1].
func (b *Bank) share(job int) float64 {
	n := 0
	for k := range b.svc {
		if k == job || !b.policy.workConserving() || b.demand[k] > 0 {
			n++
		}
	}
	return 1 / float64(n)
}

// otherDemand reports whether any job besides job has signalled demand.
func (b *Bank) otherDemand(job int) bool {
	for k, d := range b.demand {
		if k != job && d > 0 {
			return true
		}
	}
	return false
}

// Reserve books dur of stripe time for job no earlier than at, returning
// the granted slot. Reservation instants must be non-decreasing across
// calls (they are: callers reserve at the engine's current virtual
// time); a violating caller panics rather than silently corrupting the
// per-stripe gap lists, whose pruning assumes time moves forward.
//
// Every grant is made by one placement rule (place). Under BankFCFS, and
// on a bank with one job, the request is placed at its instant with no
// pacing: it goes to the stripe that finishes it earliest. Under the
// fair policies the request may not start before the job's virtual
// service clock — which advances by dur/share per grant, so a job
// sustaining more than its share has its bookings paced out with idle
// holes — and is then placed in the earliest hole (or tail) across
// stripes, so under-share jobs overtake a hog's spread-out backlog
// instead of queueing behind all of it. A job whose
// clock has fallen behind the request instant (it was idle or under its
// share) rebaselines and pays no pacing on its next write.
//
// The work-conserving policy differs in the share used: it is computed
// per grant over the currently-demanding jobs (share), and when no
// other job is demanding the request is not paced at all — the job's
// service clock rebaselines to the request instant, forgiving pacing
// debt accumulated under contention, because holding slots open for
// absent contenders would leave stripes idle against queued demand.
//
// Every shadow (Shadow) books the same request, and one whose grant
// differs from this bank's is dropped.
func (b *Bank) Reserve(job int, at, dur Time) (start, end Time) {
	start, end = b.grant(job, at, dur)
	live := b.shadows[:0]
	for _, s := range b.shadows {
		if s0, e0 := s.grant(job, at, dur); s0 == start && e0 == end {
			live = append(live, s)
		}
	}
	b.shadows = live
	return start, end
}

// grant is Reserve's booking under this bank's own policy.
func (b *Bank) grant(job int, at, dur Time) (start, end Time) {
	if at < b.lastAt {
		panic(fmt.Sprintf("sim: Bank reservation instants must be non-decreasing: job %d reserves at %v after an earlier reservation at %v", job, at, b.lastAt))
	}
	b.lastAt = at
	eff := at
	if b.policy != BankFCFS && len(b.svc) > 1 {
		// A clock behind the request instant rebaselines to it. Under the
		// work-conserving policy, so does a clock ahead of it when no
		// other job is demanding: every other job's entitlement is
		// unused, so it all flows here (share is 1). Pacing would leave
		// stripes idle that no contender can fill; book at the earliest
		// feasible instant and clear accumulated pacing debt (contention
		// resuming later paces from now, not from past sins).
		if !b.policy.workConserving() || b.otherDemand(job) {
			eff = Max(at, b.svc[job])
		}
		// The entitlement is a fraction of the aggregate bank (share x
		// width stripes), so on a wide bank a job streaming to a single
		// stripe at a time stays inside its share and is never paced —
		// pacing only bites when the job's parallel demand exceeds its
		// slice of the whole bank. The service clock advances by the
		// nominal duration: a stripe fault inflating a booking's
		// occupancy is the bank's failure, not extra demand, so it does
		// not count against the job's entitlement.
		b.svc[job] = eff + Time(float64(dur)/(b.share(job)*float64(len(b.stripes))))
	}
	start, end = b.place(at, eff, dur)
	b.total[job] += end - start
	return start, end
}

// place books dur on the stripe completing earliest for a start at or
// after eff — inside a pacing gap when one fits, else at the stripe
// tail. Within a stripe the candidate is the earliest-starting fit (the
// first gap the faulted booking fits in, else the tail); across stripes
// the earliest completion wins, with ties broken by earlier start, then
// lowest index. Completion is integrated through the stripe's fault
// windows (slotEnd), so requests flow around a stripe mid-outage to
// whichever healthy stripe finishes first; with no faults completion
// order equals start order, so the least-loaded stripe wins. An unpaced
// request (eff == at) never leaves a gap and, with no gaps booked before
// it, always books at a stripe tail.
//
// Before searching, each stripe's gap list is pruned against at (the
// current virtual time): gaps that ended at or before at are dropped,
// and a gap straddling at is trimmed to start at at — no future request
// can start earlier — so the sorted/non-overlapping/never-in-the-past
// invariant holds literally after every call. Trimming never changes
// placement (eff >= at always, so the sub-at part of a gap was already
// unusable); it exists so the invariant is checkable and the lists do
// not carry stale starts.
func (b *Bank) place(at, eff, dur Time) (start, end Time) {
	best := -1
	bestGap := -1
	var bestStart, bestEnd Time
	for i := range b.stripes {
		sp := &b.stripes[i]
		// Expire gaps the clock has passed: no future request can start
		// before at.
		keep := sp.gaps[:0]
		for _, g := range sp.gaps {
			if g.end <= at {
				continue
			}
			g.start = Max(g.start, at)
			keep = append(keep, g)
		}
		sp.gaps = keep
		st := Max(eff, sp.nextFree)
		en := b.slotEnd(i, st, dur)
		gi := -1
		for j, g := range sp.gaps {
			s0 := Max(g.start, eff)
			e0 := b.slotEnd(i, s0, dur)
			if e0 <= g.end && s0 < st {
				st, en, gi = s0, e0, j
				break // gaps are sorted by start; the first fit is earliest
			}
		}
		if best == -1 || en < bestEnd || (en == bestEnd && st < bestStart) {
			best, bestGap, bestStart, bestEnd = i, gi, st, en
		}
	}
	sp := &b.stripes[best]
	b.lastStripe = best
	start = bestStart
	end = bestEnd
	if bestGap >= 0 {
		// Split the gap around the booking, keeping nonempty remainders.
		g := sp.gaps[bestGap]
		rest := make([]gap, 0, 2)
		if g.start < start {
			rest = append(rest, gap{g.start, start})
		}
		if end < g.end {
			rest = append(rest, gap{end, g.end})
		}
		sp.gaps = append(sp.gaps[:bestGap], append(rest, sp.gaps[bestGap+1:]...)...)
		sp.busy += end - start
		return start, end
	}
	// Tail booking: pacing past the frontier leaves a new gap behind it.
	// The gap is clamped to start no earlier than at — a frontier in the
	// past would otherwise donate a hole no future request (whose instant
	// is >= at) could ever use, violating the never-in-the-past invariant
	// until the next prune.
	if gs := Max(sp.nextFree, at); start > gs {
		sp.gaps = append(sp.gaps, gap{gs, start})
	}
	sp.nextFree = end
	sp.busy += end - start
	return start, end
}
