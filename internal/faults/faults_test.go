package faults

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestPlanPure: equal specs must materialize byte-identical plans — the
// replayability contract every campaign rests on.
func TestPlanPure(t *testing.T) {
	s := DefaultSpec()
	a := s.Plan(64, 16)
	b := s.Plan(64, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs produced different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("default campaign is empty")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("default campaign invalid: %v", err)
	}
}

// eventsOfKind filters a plan by injector family.
func eventsOfKind(p Plan, k Kind) []Event {
	var out []Event
	for _, e := range p.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestFamilyStreamsIndependent: adding events of one family must not
// move any other family's events — each event draws from its own
// (seed, family-base + index) stream.
func TestFamilyStreamsIndependent(t *testing.T) {
	base := DefaultSpec()
	grown := base
	grown.Bursts += 4
	grown.Flaps += 2
	p0, p1 := base.Plan(64, 16), grown.Plan(64, 16)
	for _, k := range []Kind{StripeOutage, StripeDerate} {
		if !reflect.DeepEqual(eventsOfKind(p0, k), eventsOfKind(p1, k)) {
			t.Fatalf("%v events moved when bursts/flaps were added", k)
		}
	}
	if !reflect.DeepEqual(eventsOfKind(p0, RankBurst), eventsOfKind(p1, RankBurst)[:base.Bursts]) {
		t.Fatal("existing burst events moved when more bursts were added")
	}
}

// TestScale: the intensity axes multiply, the severity knobs do not, and
// intensity 0 yields an empty plan.
func TestScale(t *testing.T) {
	s := DefaultSpec()
	d := s.Scale(2)
	if d.Bursts != 2*s.Bursts || d.OutageLen != 2*s.OutageLen ||
		d.DerateStripes != 2*s.DerateStripes || d.Flaps != 2*s.Flaps {
		t.Fatalf("Scale(2) did not double the intensity axes: %+v", d)
	}
	if d.BurstFactor != s.BurstFactor || d.DerateRate != s.DerateRate || d.BurstLen != s.BurstLen {
		t.Fatalf("Scale(2) moved a severity knob: %+v", d)
	}
	if len(s.Scale(0).Plan(64, 16).Events) != 0 {
		t.Fatal("Scale(0) plan is not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative scale did not panic")
		}
	}()
	s.Scale(-1)
}

// TestCompileNormalizesOverlaps: overlapping windows on one target
// resolve earlier-event-wins, and every compiled list satisfies the
// sorted/non-overlapping contract the runtime integrators assume.
func TestCompileNormalizesOverlaps(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: RankBurst, At: 100, Duration: 100, Target: 3, Factor: 4},
		{Kind: RankBurst, At: 150, Duration: 100, Target: 3, Factor: 8},
		{Kind: RankBurst, At: 120, Duration: 30, Target: 3, Factor: 2}, // swallowed
	}}
	inj, err := p.Compile(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.FaultWindow{{Start: 100, End: 200, Factor: 4}, {Start: 200, End: 250, Factor: 8}}
	if !reflect.DeepEqual(inj.Rank[3], want) {
		t.Fatalf("normalized windows %+v, want %+v", inj.Rank[3], want)
	}
	if err := sim.ValidateWindows(inj.Rank[3]); err != nil {
		t.Fatal(err)
	}
}

// TestCompileContracts: the default campaign's compiled lists all pass
// their consumers' validators, outages carry rate 0, and out-of-range
// targets are dropped rather than compiled.
func TestCompileContracts(t *testing.T) {
	inj, err := DefaultSpec().Plan(64, 16).Compile(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	for r, ws := range inj.Rank {
		if err := sim.ValidateWindows(ws); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var sawOutage bool
	for s, fs := range inj.Stripe {
		if err := sim.ValidateStripeFaults(fs); err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
		for _, f := range fs {
			if f.Rate == 0 {
				sawOutage = true
			}
		}
	}
	if !sawOutage {
		t.Fatal("no outage window compiled to rate 0")
	}
	if inj.Link == nil {
		t.Fatal("no link faults compiled")
	} else if err := inj.Link.Validate(); err != nil {
		t.Fatal(err)
	}

	narrow, err := DefaultSpec().Plan(64, 16).Compile(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Rank) > 2 || len(narrow.Stripe) > 1 {
		t.Fatalf("out-of-range targets survived compilation: %d ranks, %d stripes", len(narrow.Rank), len(narrow.Stripe))
	}
}

// TestValidateRejects: malformed events are refused with their index.
func TestValidateRejects(t *testing.T) {
	bad := []Event{
		{Kind: RankBurst, At: 0, Duration: 0, Factor: 2},
		{Kind: RankBurst, At: -1, Duration: 10, Factor: 2},
		{Kind: RankBurst, At: 0, Duration: 10, Factor: 0.5},
		{Kind: StripeDerate, At: 0, Duration: 10, Factor: 1},
		{Kind: StripeDerate, At: 0, Duration: 10, Factor: 0},
		{Kind: LinkLatency, At: 0, Duration: 10, Factor: 0.9},
		{Kind: StripeOutage, At: 0, Duration: 10, Target: -1},
		{Kind: Kind(99), At: 0, Duration: 10},
	}
	for i, e := range bad {
		if (Plan{Events: []Event{e}}).Validate() == nil {
			t.Errorf("case %d: invalid event %+v accepted", i, e)
		}
	}
	if _, err := (Plan{Events: bad[:1]}).Compile(4, 4); err == nil {
		t.Error("Compile accepted an invalid plan")
	}
}

// TestParseSpec: the compact CLI syntax round-trips, the literals parse,
// and malformed input is refused.
func TestParseSpec(t *testing.T) {
	if s, err := ParseSpec(""); err != nil || s != DefaultSpec() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	if s, err := ParseSpec("default"); err != nil || s != DefaultSpec() {
		t.Fatalf("default spec: %+v, %v", s, err)
	}
	if s, err := ParseSpec("none"); err != nil || s != (Spec{}) {
		t.Fatalf("none spec: %+v, %v", s, err)
	}
	s, err := ParseSpec("seed=7, bursts=16, burst-len=500ms, derate-rate=0.5, lat-factor=3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Bursts != 16 || s.BurstLen != 500*sim.Millisecond || s.DerateRate != 0.5 || s.LatencyFactor != 3 {
		t.Fatalf("overrides not applied: %+v", s)
	}
	if s.Outages != DefaultSpec().Outages {
		t.Fatalf("untouched field moved: %+v", s)
	}
	for _, bad := range []string{"bursts", "bursts=x", "unknown=1", "horizon=12"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestInjectionEmpty: emptiness is what the neutrality pin keys on.
func TestInjectionEmpty(t *testing.T) {
	inj, err := (Plan{}).Compile(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Empty() {
		t.Fatal("zero plan compiled non-empty")
	}
	full, err := DefaultSpec().Plan(8, 8).Compile(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if full.Empty() {
		t.Fatal("default campaign compiled empty")
	}
}
