package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStringRoundTrip: ParseSpec(s.String()) == s for representative
// specs, including the special renderings and the crash fields.
func TestStringRoundTrip(t *testing.T) {
	def := DefaultSpec()
	crashy := def
	crashy.Crashes = 3
	crashy.RestartCost = 100 * sim.Millisecond
	custom := Spec{
		Seed: 42, Horizon: 2 * sim.Second,
		Bursts: 1, BurstLen: 10 * sim.Millisecond, BurstFactor: 3,
		DerateStripes: 2, DerateRate: 0.5,
		Crashes: 5, RestartCost: sim.Second,
	}
	cases := []struct {
		name string
		spec Spec
		want string // rendered form, "" to skip the exact-text check
	}{
		{"zero", Spec{}, "none"},
		{"default", def, "default"},
		{"scaled", def.Scale(2), ""},
		{"crashes", crashy, "crashes=3,restart-cost=100ms"},
		{"custom", custom, ""},
	}
	for _, c := range cases {
		text := c.spec.String()
		if c.want != "" && text != c.want {
			t.Errorf("%s: String() = %q, want %q", c.name, text, c.want)
		}
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%s: ParseSpec(%q): %v", c.name, text, err)
		}
		if back != c.spec {
			t.Errorf("%s: round trip through %q lost fields:\n got %+v\nwant %+v", c.name, text, back, c.spec)
		}
	}
}

// TestUnknownKeyListsValidKeys: the error for a bad key teaches the
// grammar. The keys of the message family, MTBF crash arrivals and the
// derate length are unknown keys like any typo: no campaign read them.
func TestUnknownKeyListsValidKeys(t *testing.T) {
	for _, text := range []string{"crashse=2", "drop-rate=0.1", "drops=3", "dup-rate=0.2", "crash-mtbf=1s", "derate-len=1s"} {
		_, err := ParseSpec(text)
		if err == nil {
			t.Fatalf("unknown key in %q accepted", text)
		}
		key, _, _ := strings.Cut(text, "=")
		if !strings.Contains(err.Error(), `unknown spec key "`+key+`"`) {
			t.Errorf("ParseSpec(%q) error %q is not the unknown-key error", text, err)
		}
		for _, valid := range SpecKeys() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("unknown-key error %q does not mention %q", err, valid)
			}
		}
	}
}

// TestParseSpecKeys: the keys are those the text sets, in the order
// given, and the special forms set none.
func TestParseSpecKeys(t *testing.T) {
	for text, want := range map[string][]string{
		"":                          nil,
		"default":                   nil,
		"none":                      nil,
		"seed=3, bursts=2":          {"seed", "bursts"},
		"restart-cost=1s,crashes=0": {"restart-cost", "crashes"},
	} {
		s, keys, err := ParseSpecKeys(text)
		if err != nil || !reflect.DeepEqual(keys, want) {
			t.Errorf("ParseSpecKeys(%q) keys %q, error %v; want %q", text, keys, err, want)
		}
		if ps, _ := ParseSpec(text); ps != s {
			t.Errorf("ParseSpecKeys(%q) spec %+v, ParseSpec's %+v", text, s, ps)
		}
	}
}

// TestParseSpecRejects: negative counts/factors/durations and repeated
// keys are refused, and every error names the offending key so the
// operator can find it in a long campaign string.
func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		text string
		key  string // the key the error must name
	}{
		{"bursts=-1", "bursts"},
		{"outages=-3", "outages"},
		{"derate-stripes=-2", "derate-stripes"},
		{"flaps=-1", "flaps"},
		{"crashes=-5", "crashes"},
		{"burst-factor=-2", "burst-factor"},
		{"derate-rate=-0.5", "derate-rate"},
		{"lat-factor=-1", "lat-factor"},
		{"bw-factor=-0.1", "bw-factor"},
		{"horizon=-1s", "horizon"},
		{"burst-len=-200ms", "burst-len"},
		{"outage-len=-1ns", "outage-len"},
		{"flap-len=-250ms", "flap-len"},
		{"restart-cost=-100ms", "restart-cost"},
		{"bursts=16,bursts=2", "bursts"},
		{"seed=1,bursts=4,seed=2", "seed"},
		{"crashes=3, crashes=3", "crashes"}, // even an agreeing repeat
	}
	for _, c := range cases {
		_, err := ParseSpec(c.text)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.text)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("ParseSpec(%q) error %q does not name key %q", c.text, err, c.key)
		}
	}
	// A negative seed is the one legitimate negative: it is an RNG stream
	// label, not a magnitude.
	if s, err := ParseSpec("seed=-7"); err != nil || s.Seed != -7 {
		t.Errorf("ParseSpec(seed=-7) = %+v, %v; want Seed -7", s, err)
	}
}

// TestCrashPlanDeterministic: equal specs yield equal crash schedules,
// and every crash lands inside the horizon.
func TestCrashPlanDeterministic(t *testing.T) {
	s := DefaultSpec()
	s.Crashes = 4
	a := s.Plan(64, 16)
	b := s.Plan(64, 16)
	var crashes int
	for i, e := range a.Events {
		if e != b.Events[i] {
			t.Fatalf("plans diverge at event %d: %+v vs %+v", i, e, b.Events[i])
		}
		if e.Kind != RankCrash {
			continue
		}
		crashes++
		if e.At < 0 || e.At >= s.Horizon {
			t.Errorf("crash at %v outside horizon %v", e.At, s.Horizon)
		}
		if e.Target < 0 || e.Target >= 64 {
			t.Errorf("crash target %d out of range", e.Target)
		}
		if e.Duration != s.RestartCost {
			t.Errorf("crash restart %v, want %v", e.Duration, s.RestartCost)
		}
	}
	if crashes != s.Crashes {
		t.Errorf("%d crash events planned, want %d", crashes, s.Crashes)
	}
}

// TestCrashFamilyIndependent: adding crashes moves no other family's
// events, and the other families never move the crashes.
func TestCrashFamilyIndependent(t *testing.T) {
	base := DefaultSpec()
	withCrashes := base
	withCrashes.Crashes = 3
	strip := func(p Plan, kind Kind, keep bool) []Event {
		var out []Event
		for _, e := range p.Events {
			if (e.Kind == kind) == keep {
				out = append(out, e)
			}
		}
		return out
	}
	a := strip(base.Plan(64, 16), RankCrash, false)
	b := strip(withCrashes.Plan(64, 16), RankCrash, false)
	if len(a) != len(b) {
		t.Fatalf("crash family changed other families' event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("crash family moved event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	quiet := Spec{Seed: base.Seed, Horizon: base.Horizon, Crashes: 3, RestartCost: base.RestartCost}
	onlyCrashes := strip(quiet.Plan(64, 16), RankCrash, true)
	fullCrashes := strip(withCrashes.Plan(64, 16), RankCrash, true)
	if len(onlyCrashes) != len(fullCrashes) {
		t.Fatalf("other families changed crash count: %d vs %d", len(onlyCrashes), len(fullCrashes))
	}
	for i := range onlyCrashes {
		if onlyCrashes[i] != fullCrashes[i] {
			t.Errorf("other families moved crash %d: %+v vs %+v", i, onlyCrashes[i], fullCrashes[i])
		}
	}
}

// TestScaleCrashes: Scale multiplies the crash count, leaving
// RestartCost alone.
func TestScaleCrashes(t *testing.T) {
	s := DefaultSpec()
	s.Crashes = 2
	x := s.Scale(2)
	if x.Crashes != 4 {
		t.Errorf("Scale(2).Crashes = %d, want 4", x.Crashes)
	}
	if x.RestartCost != s.RestartCost {
		t.Errorf("Scale changed RestartCost: %v vs %v", x.RestartCost, s.RestartCost)
	}
	z := s.Scale(0)
	if z.Crashes != 0 {
		t.Errorf("Scale(0) kept crashes: %+v", z)
	}
}

// FuzzParseSpec: no input crashes the parser, and every accepted spec
// survives a String round trip.
func FuzzParseSpec(f *testing.F) {
	f.Add("default")
	f.Add("none")
	f.Add("bursts=16,burst-factor=20,outage-len=1s")
	f.Add("crashes=3,restart-cost=100ms")
	f.Add("restart-cost=0s,seed=9")
	f.Add("crashes=x")
	f.Add("horizon=2s,derate-stripes=8,derate-rate=0.1")
	f.Add("bursts=-1")
	f.Add("burst-factor=-2,derate-rate=-0.5")
	f.Add("restart-cost=-100ms")
	f.Add("bursts=16,bursts=2")
	f.Add("seed=-7,crashes=0")
	f.Add("flaps=8,flap-len=100ms,lat-factor=3,bw-factor=2")
	f.Add("derate-rate=1.5")
	f.Add("drops=3")
	f.Add("crashes=2,outages=1,seed=3")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", s.String(), text, err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", text, back, s)
		}
	})
}
