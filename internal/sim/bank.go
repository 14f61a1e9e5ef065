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
// reservation call sequence — and, for the work-conserving policies, of
// the interleaved demand-signal sequence (IOBegin/IOEnd) — which the
// engine's (t, seq) event order fixes.
type BankPolicy int

const (
	// BankFCFS grants reservations in pure arrival order on the
	// least-loaded stripe. With a single job this is byte-identical to
	// the historical per-world Striped behavior; it is also the baseline
	// inter-job policy (no isolation: a hog job's booked backlog delays
	// everyone behind it).
	BankFCFS BankPolicy = iota
	// BankFair is equal-share pacing: with k jobs registered, each job's
	// sustained bookings may occupy at most 1/k of the timeline, so a
	// hog's reservations are spread out with idle holes and a light job's
	// requests slot into the holes instead of queueing behind the hog's
	// whole backlog. Shares are static (token-bucket semantics): a job
	// coming off idle gets one unpaced burst, then pacing resumes, and a
	// sustained hog stays paced even while the other jobs underuse their
	// shares — the deliberate, non-work-conserving trade real QoS engines
	// (Lustre's TBF) make for isolation. Per-job weights are ignored
	// (all 1).
	BankFair
	// BankWeighted is BankFair with per-job share weights: a weight-4
	// job is entitled to four times the timeline fraction of a weight-1
	// job. This is the priority policy: priority ranks map to weights.
	BankWeighted
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
	// As under BankFair, weights are ignored.
	BankFairWC
	// BankWeightedWC is BankWeighted made work-conserving the same way:
	// a reserving job's entitlement is its weight over the weights of the
	// currently-demanding jobs, so an idle job's weighted share flows to
	// whoever is asking, proportionally to weight.
	BankWeightedWC
)

// String names the policy as the cosched experiment series do.
func (p BankPolicy) String() string {
	switch p {
	case BankFCFS:
		return "fcfs"
	case BankFair:
		return "fair"
	case BankWeighted:
		return "priority"
	case BankFairWC:
		return "fair-wc"
	case BankWeightedWC:
		return "priority-wc"
	default:
		return fmt.Sprintf("BankPolicy(%d)", int(p))
	}
}

// workConserving reports whether the policy redistributes idle
// entitlement over demanding jobs.
func (p BankPolicy) workConserving() bool {
	return p == BankFairWC || p == BankWeightedWC
}

// weighted reports whether per-job weights participate in the share.
func (p BankPolicy) weighted() bool {
	return p == BankWeighted || p == BankWeightedWC
}

// gap is an unreserved hole in a stripe's timeline, left by pacing an
// over-share job's reservation past the stripe's previous frontier.
type gap struct {
	start, end Time
}

// bankLink is the per-stripe gap list maintained under the fair policies
// (FCFS never creates or fills gaps). Gaps are kept sorted by start and
// non-overlapping; reservation instants only move forward in virtual
// time, so after every Reserve call the surviving gaps lie entirely at
// or after the reservation instant — expired gaps are dropped and a gap
// straddling the instant is trimmed to its usable future part.
type bankLink struct {
	gaps []gap
}

// Bank is a striped-FS bank shared by one or more jobs (worlds): the
// Striped link array plus per-job pacing state and an inter-job
// arbitration policy. A single-job BankFCFS bank behaves exactly like the
// bare Striped it wraps, which is what keeps single-world trajectories
// byte-identical across the extraction.
type Bank struct {
	s      Striped
	glinks []bankLink
	policy BankPolicy

	// svc is each job's virtual service clock: the earliest instant its
	// next reservation may start. It advances by dur/share per grant and
	// rebaselines to the request instant when the job is under its share
	// (idle periods refill its burst credit).
	svc []Time
	// total is each job's lifetime reserved stripe time, for reporting.
	total   []Time
	weights []float64

	// demand is each job's count of in-flight file operations, fed by
	// IOBegin/IOEnd. A job with a positive count has queued I/O demand;
	// the work-conserving policies re-split idle jobs' entitlement over
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

// NewBank creates a bank of stripes links arbitrated between jobs jobs
// under the given policy. Both counts must be positive.
func NewBank(stripes, jobs int, policy BankPolicy) *Bank {
	if jobs <= 0 {
		panic(fmt.Sprintf("sim: Bank needs at least one job, got %d", jobs))
	}
	b := &Bank{
		s:           *NewStriped(stripes),
		policy:      policy,
		svc:         make([]Time, jobs),
		total:       make([]Time, jobs),
		weights:     make([]float64, jobs),
		demand:      make([]int, jobs),
		demandSince: make([]Time, jobs),
		demandTime:  make([]Time, jobs),
	}
	if policy != BankFCFS {
		b.glinks = make([]bankLink, stripes)
	}
	for i := range b.weights {
		b.weights[i] = 1
	}
	return b
}

// SetWeight sets job's share weight for the weighted policies. Weights
// must be positive; the other policies ignore them.
func (b *Bank) SetWeight(job int, w float64) {
	if w <= 0 {
		panic(fmt.Sprintf("sim: Bank weight %v for job %d", w, job))
	}
	b.weights[job] = w
	for _, s := range b.shadows {
		s.SetWeight(job, w)
	}
}

// Shadow attaches a private bank under policy p that receives every
// Reserve, IOBegin, IOEnd, SetWeight and SetStripeFaults call this bank
// receives, starting from a copy of its weights and stripe faults, and
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
	s := NewBank(b.s.Width(), len(b.svc), p)
	copy(s.weights, b.weights)
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
func (b *Bank) Width() int { return b.s.Width() }

// Jobs reports the number of jobs the bank arbitrates between.
func (b *Bank) Jobs() int { return len(b.svc) }

// Busy reports the total reserved stripe time across all links.
func (b *Bank) Busy() Time { return b.s.Busy() }

// JobBusy reports the total stripe time job has reserved over the bank's
// lifetime.
func (b *Bank) JobBusy(job int) Time { return b.total[job] }

// IOBegin records that one of job's processes entered a file operation
// at virtual time at: the job has queued I/O demand until the matching
// IOEnd. Demand is a per-job reference count, so concurrent operations
// from several ranks of one job nest. Signalling is pure bookkeeping —
// it schedules no events and moves no clocks — so it never perturbs
// trajectories; only the work-conserving policies read it when granting.
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
	if stripe < 0 || stripe >= b.s.Width() {
		panic(fmt.Sprintf("sim: SetStripeFaults on stripe %d of %d", stripe, b.s.Width()))
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
		b.sfaults = make([][]StripeFault, b.s.Width())
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
// runs. Weights are retained; fault windows are not (they are per-run
// campaign state — the owner re-applies them via SetStripeFaults).
func (b *Bank) Reset() {
	b.s.Reset()
	b.sfaults = nil
	for i := range b.glinks {
		b.glinks[i].gaps = b.glinks[i].gaps[:0]
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

// share reports job's static timeline share: equal splits under the fair
// policies, its weight over the weights of every registered job under
// the weighted ones.
func (b *Bank) share(job int) float64 {
	if !b.policy.weighted() {
		return 1 / float64(len(b.svc))
	}
	var sum float64
	for _, w := range b.weights {
		sum += w
	}
	return b.weights[job] / sum
}

// wcShare reports job's dynamic share under the work-conserving
// policies: its weight over the weights of the currently-demanding jobs.
// The reserving job always counts as demanding (it is asking right now,
// whether or not its demand hook fired), so the result is in (0, 1].
// Idle jobs contribute nothing to the denominator — their entitlement is
// re-split over the demanding jobs by weight.
func (b *Bank) wcShare(job int) float64 {
	var sum, mine float64
	for k := range b.svc {
		w := 1.0
		if b.policy.weighted() {
			w = b.weights[k]
		}
		if k == job {
			mine = w
			sum += w
		} else if b.demand[k] > 0 {
			sum += w
		}
	}
	return mine / sum
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
// Under BankFCFS the request goes straight to the least-loaded stripe,
// identically to Striped.Reserve. Under the fair policies the request may
// not start before the job's virtual service clock — which advances by
// dur/share per grant, so a job sustaining more than its share has its
// bookings paced out with idle holes — and is then placed in the earliest
// hole (or tail) across stripes, so under-share jobs overtake a hog's
// spread-out backlog instead of queueing behind all of it. A job whose
// clock has fallen behind the request instant (it was idle or under its
// share) rebaselines and pays no pacing on its next write.
//
// The work-conserving policies differ in the share used: it is computed
// per grant over the currently-demanding jobs (wcShare), and when no
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
	if b.policy == BankFCFS || len(b.svc) == 1 {
		if b.sfaults == nil {
			start, end, b.lastStripe = b.s.reserve(at, dur)
			b.total[job] += dur
			return start, end
		}
		start, end = b.reserveFaulted(at, dur)
		b.total[job] += end - start
		return start, end
	}
	if b.svc[job] < at {
		b.svc[job] = at
	}
	var share float64
	switch {
	case !b.policy.workConserving():
		share = b.share(job)
	case b.otherDemand(job):
		share = b.wcShare(job)
	default:
		// Idle-share redistribution, sole-demander case: every other
		// job's entitlement is unused, so it all flows here. Pacing
		// would leave stripes idle that no contender can fill; book
		// at the earliest feasible instant and clear accumulated
		// pacing debt (contention resuming later paces from now, not
		// from past sins).
		b.svc[job] = at
		share = 1
	}
	eff := b.svc[job]
	start, end = b.place(at, eff, dur)
	// The entitlement is a fraction of the aggregate bank (share x width
	// stripes), so on a wide bank a job streaming to a single stripe at a
	// time stays inside its share and is never paced — pacing only bites
	// when the job's parallel demand exceeds its slice of the whole bank.
	// The service clock advances by the nominal duration: a stripe fault
	// inflating a booking's occupancy is the bank's failure, not extra
	// demand, so it does not count against the job's entitlement.
	b.svc[job] = eff + Time(float64(dur)/(share*float64(b.s.Width())))
	b.total[job] += end - start
	return start, end
}

// reserveFaulted is the FCFS/single-job path with stripe faults present:
// least-loaded placement like Striped.reserve, except that each stripe's
// completion is integrated through its fault windows and the stripe
// finishing earliest wins (ties by earlier start, then lowest index) —
// so requests skip a stripe mid-outage whenever a healthy stripe would
// finish sooner. With no faults the completion ordering equals the start
// ordering and the choice matches Striped.reserve exactly.
func (b *Bank) reserveFaulted(at, dur Time) (start, end Time) {
	best := 0
	bestStart := Max(at, b.s.links[0].nextFree)
	bestEnd := b.slotEnd(0, bestStart, dur)
	for i := 1; i < len(b.s.links); i++ {
		st := Max(at, b.s.links[i].nextFree)
		en := b.slotEnd(i, st, dur)
		if en < bestEnd || (en == bestEnd && st < bestStart) {
			best, bestStart, bestEnd = i, st, en
		}
	}
	l := &b.s.links[best]
	l.nextFree = bestEnd
	l.busy += bestEnd - bestStart
	b.lastStripe = best
	return bestStart, bestEnd
}

// place books dur on the stripe completing earliest for a start at or
// after eff — inside a pacing gap when one fits, else at the stripe
// tail. Within a stripe the candidate is the earliest-starting fit (the
// first gap the faulted booking fits in, else the tail); across stripes
// the earliest completion wins, with ties broken by earlier start, then
// lowest index. Completion is integrated through the stripe's fault
// windows (slotEnd), so requests flow around a stripe mid-outage to
// whichever healthy stripe finishes first; with no faults completion
// order equals start order and the selection is byte-identical to the
// historical earliest-start rule.
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
	for i := range b.s.links {
		gl := &b.glinks[i]
		// Expire gaps the clock has passed: no future request can start
		// before at.
		keep := gl.gaps[:0]
		for _, g := range gl.gaps {
			if g.end <= at {
				continue
			}
			if g.start < at {
				g.start = at
			}
			keep = append(keep, g)
		}
		gl.gaps = keep
		st := Max(eff, b.s.links[i].nextFree)
		en := b.slotEnd(i, st, dur)
		gi := -1
		for j, g := range gl.gaps {
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
	l := &b.s.links[best]
	b.lastStripe = best
	start = bestStart
	end = bestEnd
	if bestGap >= 0 {
		// Split the gap around the booking, keeping nonempty remainders.
		gl := &b.glinks[best]
		g := gl.gaps[bestGap]
		rest := make([]gap, 0, 2)
		if g.start < start {
			rest = append(rest, gap{g.start, start})
		}
		if end < g.end {
			rest = append(rest, gap{end, g.end})
		}
		gl.gaps = append(gl.gaps[:bestGap], append(rest, gl.gaps[bestGap+1:]...)...)
		l.busy += end - start
		return start, end
	}
	// Tail booking: pacing past the frontier leaves a new gap behind it.
	// The gap is clamped to start no earlier than at — a frontier in the
	// past would otherwise donate a hole no future request (whose instant
	// is >= at) could ever use, violating the never-in-the-past invariant
	// until the next prune.
	if gs := Max(l.nextFree, at); start > gs {
		gl := &b.glinks[best]
		gl.gaps = append(gl.gaps, gap{gs, start})
	}
	l.nextFree = end
	l.busy += end - start
	return start, end
}
