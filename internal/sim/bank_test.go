package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestBankFCFSMatchesStriped: the single-job FCFS bank must reproduce the
// bare Striped grant-for-grant — that equivalence is what keeps
// single-world trajectories byte-identical across the bank extraction.
func TestBankFCFSMatchesStriped(t *testing.T) {
	for _, stripes := range []int{1, 3, 16} {
		b := NewBank(stripes, 1, BankFCFS)
		s := NewStriped(stripes)
		rng := rand.New(rand.NewSource(42))
		var at Time
		for i := 0; i < 500; i++ {
			at += Time(rng.Intn(1000))
			dur := Time(rng.Intn(2000) + 1)
			bs, be := b.Reserve(0, at, dur)
			ss, se, _ := s.reserve(at, dur)
			if bs != ss || be != se {
				t.Fatalf("stripes=%d op %d: bank granted [%v,%v), striped [%v,%v)", stripes, i, bs, be, ss, se)
			}
		}
		if b.Busy() != s.Busy() {
			t.Errorf("stripes=%d: busy %v != %v", stripes, b.Busy(), s.Busy())
		}
	}
}

// TestBankMultiJobFCFSIsArrivalOrder: FCFS with several jobs applies no
// pacing at all — grants match a bare Striped regardless of which job
// asks.
func TestBankMultiJobFCFSIsArrivalOrder(t *testing.T) {
	b := NewBank(4, 3, BankFCFS)
	s := NewStriped(4)
	rng := rand.New(rand.NewSource(7))
	var at Time
	for i := 0; i < 300; i++ {
		at += Time(rng.Intn(500))
		dur := Time(rng.Intn(1500) + 1)
		job := rng.Intn(3)
		bs, be := b.Reserve(job, at, dur)
		ss, se, _ := s.reserve(at, dur)
		if bs != ss || be != se {
			t.Fatalf("op %d: bank granted [%v,%v), striped [%v,%v)", i, bs, be, ss, se)
		}
	}
}

// TestBankGrantsNeverOverlap: on a single stripe, grants from any mix of
// jobs and policies must never overlap — gap splitting and tail booking
// both have to respect existing reservations.
func TestBankGrantsNeverOverlap(t *testing.T) {
	for _, policy := range []BankPolicy{BankFCFS, BankFair, BankWeighted} {
		b := NewBank(1, 3, policy)
		b.SetWeight(0, 4)
		rng := rand.New(rand.NewSource(int64(policy) + 99))
		type iv struct{ s, e Time }
		var got []iv
		var at Time
		for i := 0; i < 800; i++ {
			at += Time(rng.Intn(300))
			dur := Time(rng.Intn(700) + 1)
			job := rng.Intn(3)
			s, e := b.Reserve(job, at, dur)
			if s < at {
				t.Fatalf("%v op %d: grant starts at %v before request instant %v", policy, i, s, at)
			}
			if e-s != dur {
				t.Fatalf("%v op %d: grant [%v,%v) is not %v long", policy, i, s, e, dur)
			}
			got = append(got, iv{s, e})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].s < got[j].s })
		for i := 1; i < len(got); i++ {
			if got[i].s < got[i-1].e {
				t.Fatalf("%v: grants [%v,%v) and [%v,%v) overlap", policy, got[i-1].s, got[i-1].e, got[i].s, got[i].e)
			}
		}
	}
}

// TestBankFairPacesHogAndFillsGaps: a job sustaining back-to-back demand
// under equal shares is paced to half the timeline, and the other job's
// requests land in the holes — at their request instant, not behind the
// hog's backlog.
func TestBankFairPacesHogAndFillsGaps(t *testing.T) {
	b := NewBank(1, 2, BankFair)
	// Hog books 10 back-to-back units from t=0 without waiting.
	var starts []Time
	for i := 0; i < 10; i++ {
		s, _ := b.Reserve(0, 0, 100)
		starts = append(starts, s)
	}
	// Pacing at share 1/2: bookings land at 0, 200, 400, ...
	for i, s := range starts {
		if want := Time(i * 200); s != want {
			t.Errorf("hog booking %d starts at %v, want %v", i, s, want)
		}
	}
	// The light job's request at t=50 fits the first hole [100,200).
	s, e := b.Reserve(1, 50, 100)
	if s != 100 || e != 200 {
		t.Errorf("light job granted [%v,%v), want [100,200)", s, e)
	}
	// The light job is paced too (svc is now 250), so its next request
	// lands in the first hole at or after its own clock.
	s, _ = b.Reserve(1, 50, 100)
	if s != 300 {
		t.Errorf("second light request granted at %v, want 300 (first hole past svc=250)", s)
	}
	// A request no hole can fit goes to the stripe tail, behind the
	// hog's last booking.
	s, _ = b.Reserve(1, 50, 150)
	if s != 1900 {
		t.Errorf("oversized request granted at %v, want 1900 (stripe tail)", s)
	}
}

// TestBankWeightedShares: weights shift the pacing rate — a weight-3 job
// is paced at 1/4 the rate of... rather, gets 3/4 of the timeline while a
// weight-1 job gets 1/4.
func TestBankWeightedShares(t *testing.T) {
	b := NewBank(1, 2, BankWeighted)
	b.SetWeight(0, 3)
	// Job 0 (share 3/4): svc advances by dur/0.75.
	s0a, _ := b.Reserve(0, 0, 300)
	s0b, _ := b.Reserve(0, 0, 300)
	if s0a != 0 || s0b != 400 {
		t.Errorf("weighted hog booked at %v and %v, want 0 and 400", s0a, s0b)
	}
	// Job 1 (share 1/4): its first request fills the hog's pacing hole
	// [300,400); its clock then reads 400, so the next request goes to
	// the stripe tail (the frontier at 700 is past the clock).
	s1a, _ := b.Reserve(1, 0, 100)
	s1b, _ := b.Reserve(1, 0, 100)
	if s1a != 300 || s1b != 700 {
		t.Errorf("weighted light job booked at %v and %v, want 300 and 700", s1a, s1b)
	}
}

// TestBankIdleRebaseline: a job that was paced far ahead but then goes
// idle rebaselines its service clock — returning demand starts at the
// request instant again (one free burst, token-bucket style).
func TestBankIdleRebaseline(t *testing.T) {
	b := NewBank(1, 2, BankFair)
	for i := 0; i < 5; i++ {
		b.Reserve(0, 0, 100)
	}
	// svc[0] is now 1000; a request at t=2000 (past the clock) pays no
	// pacing debt.
	s, _ := b.Reserve(0, 2000, 100)
	if s != 2000 {
		t.Errorf("rebaselined request granted at %v, want 2000", s)
	}
}

// TestBankReset: a reset bank reproduces a fresh bank's grants exactly.
func TestBankReset(t *testing.T) {
	run := func(b *Bank) []Time {
		var out []Time
		rng := rand.New(rand.NewSource(3))
		var at Time
		for i := 0; i < 200; i++ {
			at += Time(rng.Intn(200))
			s, _ := b.Reserve(rng.Intn(2), at, Time(rng.Intn(400)+1))
			out = append(out, s)
		}
		return out
	}
	b := NewBank(2, 2, BankFair)
	first := run(b)
	b.Reset()
	second := run(b)
	fresh := run(NewBank(2, 2, BankFair))
	for i := range first {
		if first[i] != second[i] || first[i] != fresh[i] {
			t.Fatalf("grant %d: first %v, after reset %v, fresh %v", i, first[i], second[i], fresh[i])
		}
	}
}

// TestBankReserveContractEnforced: Reserve documents that reservation
// instants are non-decreasing across calls; a violating caller must
// panic (naming the job and both instants) instead of silently
// corrupting the gap lists, whose pruning assumes time moves forward.
func TestBankReserveContractEnforced(t *testing.T) {
	b := NewBank(1, 2, BankFair)
	b.Reserve(0, 100, 10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Reserve with a decreasing instant did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"non-decreasing", "job 1", "50ns", "100ns"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	b.Reserve(1, 50, 10)
}

// TestBankGapTrimOnPartialExpiry: a gap straddling the reservation
// instant (start < at < end) must be trimmed to its usable future part,
// not kept whole with a stale start — after every Reserve call the gap
// lists hold only intervals at or after the call's instant.
func TestBankGapTrimOnPartialExpiry(t *testing.T) {
	b := NewBank(1, 2, BankFair)
	// Hog pacing leaves the hole [100,200) behind the frontier.
	b.Reserve(0, 0, 100) // [0,100)
	b.Reserve(0, 0, 100) // [200,300), gap [100,200)
	// A request at t=150 that does not fit the hole's remainder books at
	// the tail; the straddling gap must come out trimmed to [150,200).
	s, _ := b.Reserve(1, 150, 60)
	if s != 300 {
		t.Fatalf("oversized request granted at %v, want 300 (stripe tail)", s)
	}
	gaps := b.glinks[0].gaps
	if len(gaps) != 1 || gaps[0].start != 150 || gaps[0].end != 200 {
		t.Errorf("gap list after straddling prune: %v, want [{150 200}]", gaps)
	}
	for _, g := range gaps {
		if g.start < 150 {
			t.Errorf("gap %v survives with a start before the reservation instant 150", g)
		}
	}
}

// TestBankWCSoleDemanderFullRate: under the work-conserving policies a
// job reserving while no other job has signalled demand is not paced at
// all — back-to-back requests proceed at the full bank rate, where the
// static policy would stretch them to the job's share.
func TestBankWCSoleDemanderFullRate(t *testing.T) {
	wc := NewBank(1, 2, BankFairWC)
	static := NewBank(1, 2, BankFair)
	var at Time
	for i := 0; i < 5; i++ {
		s, e := wc.Reserve(0, at, 100)
		if s != at {
			t.Errorf("wc booking %d starts at %v, want %v (no pacing without contending demand)", i, s, at)
		}
		at = e
	}
	at = 0
	var starts []Time
	for i := 0; i < 5; i++ {
		s, e := static.Reserve(0, at, 100)
		starts = append(starts, s)
		if e > at {
			at = e
		}
	}
	if starts[4] <= 400 {
		t.Errorf("static fair booked the 5th write at %v; expected pacing beyond 400", starts[4])
	}
}

// TestBankWCRedistributesOnDemand: pacing switches on exactly while
// another job signals demand, and the paced job's holes remain fillable
// — including by the hog itself once the contender withdraws.
func TestBankWCRedistributesOnDemand(t *testing.T) {
	b := NewBank(1, 2, BankFairWC)
	b.IOBegin(1, 0)
	if s, _ := b.Reserve(0, 0, 100); s != 0 {
		t.Fatalf("first booking at %v, want 0", s)
	}
	// Job 1 is demanding: job 0 is paced to share 1/2, leaving [100,200).
	if s, _ := b.Reserve(0, 0, 100); s != 200 {
		t.Fatalf("contended booking at %v, want 200 (share 1/2 pacing)", s)
	}
	b.IOEnd(1, 0)
	// Contender gone: the hog's own next request fills the hole it left.
	if s, _ := b.Reserve(0, 0, 100); s != 100 {
		t.Fatalf("post-contention booking at %v, want 100 (fills own hole)", s)
	}
	// Hole consumed; next goes at the frontier, full rate, no new holes.
	if s, _ := b.Reserve(0, 0, 100); s != 300 {
		t.Fatalf("follow-up booking at %v, want 300 (stripe frontier)", s)
	}
}

// TestBankWeightedWCShares: the work-conserving weighted share is
// computed over demanding jobs only — an idle heavyweight contributes
// nothing to the denominator.
func TestBankWeightedWCShares(t *testing.T) {
	b := NewBank(1, 3, BankWeightedWC)
	b.SetWeight(1, 4)
	b.SetWeight(2, 4)
	// Only job 1 (weight 4) demands: job 0's share is 1/(1+4), so its
	// service clock advances by 5x the booked time.
	b.IOBegin(1, 0)
	b.Reserve(0, 0, 100)
	if s, _ := b.Reserve(0, 0, 100); s != 500 {
		t.Errorf("booking under 1/5 share at %v, want 500", s)
	}
	// Job 2 (also weight 4) joins: share drops to 1/9.
	b.IOBegin(2, 0)
	if s, _ := b.Reserve(0, 0, 100); s != 1000 {
		t.Errorf("booking under 1/9 share at %v, want 1000 (svc 500 + 100/(1/9) advance books at prior svc)", s)
	}
}

// TestBankWCDebtForgiveness: pacing debt accumulated under contention is
// forgiven when the contenders withdraw — the returning sole demander
// books from the request instant, not from its inflated service clock.
func TestBankWCDebtForgiveness(t *testing.T) {
	b := NewBank(1, 2, BankFairWC)
	b.IOBegin(1, 0)
	for i := 0; i < 5; i++ {
		b.Reserve(0, 0, 100) // svc[0] inflates to 1000 under share 1/2
	}
	b.IOEnd(1, 0)
	// The static policies would grant no earlier than svc; the WC policy
	// books at the earliest feasible instant instead. The holes at
	// [100,200), [300,400), ... are still open — the earliest is 100.
	if s, _ := b.Reserve(0, 0, 100); s != 100 {
		t.Errorf("sole demander granted at %v, want 100 (earliest hole, debt forgiven)", s)
	}
}

// TestBankDemandAccounting: IOBegin/IOEnd reference-count per job and
// accumulate closed intervals into JobDemand; unmatched IOEnd panics.
func TestBankDemandAccounting(t *testing.T) {
	b := NewBank(2, 2, BankFairWC)
	b.IOBegin(0, 100)
	if b.demand[0] == 0 || b.demand[1] > 0 {
		t.Fatalf("demand counts wrong after IOBegin(0): %v %v", b.demand[0], b.demand[1])
	}
	b.IOBegin(0, 150) // second rank of the same job: nested
	b.IOEnd(0, 300)
	if b.demand[0] == 0 {
		t.Fatal("job 0 stopped demanding while one operation is still open")
	}
	b.IOEnd(0, 400)
	if b.demand[0] > 0 {
		t.Fatal("job 0 still demanding after both operations ended")
	}
	if got := b.JobDemand(0); got != 300 {
		t.Errorf("JobDemand(0) = %v, want 300 (one closed interval [100,400))", got)
	}
	b.Reset()
	if b.demand[0] > 0 || b.JobDemand(0) != 0 {
		t.Error("Reset did not clear demand state")
	}
	defer func() {
		if recover() == nil {
			t.Error("IOEnd without IOBegin did not panic")
		}
	}()
	b.IOEnd(1, 500)
}

// TestBankResetDropsFaultsAndDemand: a bank carrying stripe fault
// windows and open demand refcounts repools cleanly. After Reset it is
// grant-for-grant identical to a fresh bank (fault windows are per-run
// campaign state the owner re-applies, open demand is stale), and
// re-applying the same campaign reproduces the faulted grants exactly —
// the reuse guarantee the cluster engine pool relies on.
func TestBankResetDropsFaultsAndDemand(t *testing.T) {
	fs := []StripeFault{{Start: 100, End: 600, Rate: 0}, {Start: 900, End: 1400, Rate: 0.5}}
	run := func(b *Bank, faulted bool) []Time {
		if faulted {
			b.SetStripeFaults(1, fs)
		}
		var out []Time
		rng := rand.New(rand.NewSource(9))
		var at Time
		for i := 0; i < 150; i++ {
			at += Time(rng.Intn(150))
			job := rng.Intn(2)
			if i%17 == 0 {
				// Deliberately left open: Reset must clear the refcount.
				b.IOBegin(job, at)
			}
			s, e := b.Reserve(job, at, Time(rng.Intn(300)+1))
			out = append(out, s, e)
		}
		return out
	}
	equal := func(a, b []Time) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	b := NewBank(2, 2, BankFairWC)
	faulted := run(b, true)
	if len(b.sfaults[1]) == 0 {
		t.Fatal("bank does not hold the installed fault windows")
	}
	b.Reset()
	if b.sfaults != nil {
		t.Fatal("Reset kept fault windows")
	}
	clean := run(b, false)
	if !equal(clean, run(NewBank(2, 2, BankFairWC), false)) {
		t.Fatal("reused bank diverges from a fresh clean bank")
	}
	if equal(faulted, clean) {
		t.Fatal("fault windows changed no grant; the regression test is vacuous")
	}
	b.Reset()
	if !equal(faulted, run(b, true)) {
		t.Fatal("re-applied campaign diverges from the first faulted run")
	}
}

// TestBankPlacementTies: when two stripes would complete a request at the
// same instant, the one that starts it earlier gets it, on the faulted
// FCFS path (reserveFaulted) and on the paced one (place), whichever of
// the two stripes that is, and the lower index breaks a tie in both. In
// the first four rows one stripe is busy until 400 and the other has an
// outage over [150, 450), so a request for 100 at 100 ends at 500 on both:
// [100, 500) across the outage, or [400, 500) behind the booking.
func TestBankPlacementTies(t *testing.T) {
	type req struct {
		job     int
		at, dur Time
	}
	cases := []struct {
		name       string
		policy     BankPolicy
		jobs       int
		outage     int // of the two stripes, the one with the outage
		setup      []req
		req        req
		start, end Time
		stripe     int
	}{
		{"faulted FCFS, second stripe starts earlier", BankFCFS, 1, 1, []req{{0, 0, 400}}, req{0, 100, 100}, 100, 500, 1},
		{"faulted FCFS, first stripe starts earlier", BankFCFS, 1, 0, []req{{0, 0, 400}}, req{0, 100, 100}, 100, 500, 0},
		{"paced, second stripe starts earlier", BankFair, 2, 1, []req{{0, 0, 400}}, req{1, 100, 100}, 100, 500, 1},
		{"paced, first stripe starts earlier", BankFair, 2, 0, []req{{0, 0, 400}}, req{1, 100, 100}, 100, 500, 0},
		{"faulted FCFS, full tie goes to the first stripe", BankFCFS, 1, 1, nil, req{0, 0, 100}, 0, 100, 0},
		{"paced, full tie goes to the first stripe", BankFair, 2, 1, nil, req{1, 0, 100}, 0, 100, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBank(2, tc.jobs, tc.policy)
			b.SetStripeFaults(tc.outage, []StripeFault{{Start: 150, End: 450}})
			for _, r := range tc.setup {
				b.Reserve(r.job, r.at, r.dur)
			}
			s, e := b.Reserve(tc.req.job, tc.req.at, tc.req.dur)
			if s != tc.start || e != tc.end || b.lastStripe != tc.stripe {
				t.Errorf("granted [%v,%v) on stripe %d, want [%v,%v) on stripe %d", s, e, b.lastStripe, tc.start, tc.end, tc.stripe)
			}
		})
	}
}
