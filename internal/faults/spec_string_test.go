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
	mtbf := def
	mtbf.CrashMTBF = 750 * sim.Millisecond
	lossy := def
	lossy.DropRate = 0.25
	lossy.Drops = 4
	lossy.DupRate = 0.0625
	custom := Spec{
		Seed: 42, Horizon: 2 * sim.Second,
		Bursts: 1, BurstLen: 10 * sim.Millisecond, BurstFactor: 3,
		DerateStripes: 2, DerateRate: 0.5,
		Crashes: 5, RestartCost: sim.Second,
		DropRate: 0.1, Drops: 2, DupRate: 0.05,
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
		{"mtbf", mtbf, "crash-mtbf=750ms"},
		{"lossy", lossy, "drop-rate=0.25,drops=4,dup-rate=0.0625"},
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
// grammar.
func TestUnknownKeyListsValidKeys(t *testing.T) {
	_, err := ParseSpec("crashse=2")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range SpecKeys() {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-key error %q does not mention %q", err, key)
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
		{"derate-len=-4ms", "derate-len"},
		{"flap-len=-250ms", "flap-len"},
		{"crash-mtbf=-1ms", "crash-mtbf"},
		{"restart-cost=-100ms", "restart-cost"},
		{"bursts=16,bursts=2", "bursts"},
		{"seed=1,bursts=4,seed=2", "seed"},
		{"crashes=3, crashes=3", "crashes"}, // even an agreeing repeat
		{"drops=-2", "drops"},
		{"drop-rate=-0.1", "drop-rate"},
		{"dup-rate=-1", "dup-rate"},
		{"drop-rate=1.5", "drop-rate"}, // probabilities cap at 1
		{"dup-rate=2", "dup-rate"},
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
// and both the uniform and MTBF generators stay inside the horizon.
func TestCrashPlanDeterministic(t *testing.T) {
	for _, mtbf := range []sim.Time{0, 300 * sim.Millisecond} {
		s := DefaultSpec()
		s.Crashes = 4
		s.CrashMTBF = mtbf
		a := s.Plan(64, 16)
		b := s.Plan(64, 16)
		var crashes int
		for i, e := range a.Events {
			if e != b.Events[i] {
				t.Fatalf("mtbf=%v: plans diverge at event %d: %+v vs %+v", mtbf, i, e, b.Events[i])
			}
			if e.Kind != RankCrash {
				continue
			}
			crashes++
			if e.At < 0 || e.At >= s.Horizon {
				t.Errorf("mtbf=%v: crash at %v outside horizon %v", mtbf, e.At, s.Horizon)
			}
			if e.Target < 0 || e.Target >= 64 {
				t.Errorf("mtbf=%v: crash target %d out of range", mtbf, e.Target)
			}
			if e.Duration != s.RestartCost {
				t.Errorf("mtbf=%v: crash restart %v, want %v", mtbf, e.Duration, s.RestartCost)
			}
		}
		if crashes == 0 {
			t.Errorf("mtbf=%v: no crash events planned", mtbf)
		}
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

// TestScaleCrashes: Scale multiplies the crash count and divides the
// MTBF, leaving RestartCost alone.
func TestScaleCrashes(t *testing.T) {
	s := DefaultSpec()
	s.Crashes = 2
	s.CrashMTBF = sim.Second
	x := s.Scale(2)
	if x.Crashes != 4 {
		t.Errorf("Scale(2).Crashes = %d, want 4", x.Crashes)
	}
	if x.CrashMTBF != 500*sim.Millisecond {
		t.Errorf("Scale(2).CrashMTBF = %v, want 500ms", x.CrashMTBF)
	}
	if x.RestartCost != s.RestartCost {
		t.Errorf("Scale changed RestartCost: %v vs %v", x.RestartCost, s.RestartCost)
	}
	z := s.Scale(0)
	if z.Crashes != 0 || z.CrashMTBF != 0 {
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
	f.Add("crash-mtbf=250ms,seed=9")
	f.Add("crashes=x")
	f.Add("horizon=2s,derate-stripes=8,derate-rate=0.1")
	f.Add("bursts=-1")
	f.Add("burst-factor=-2,derate-rate=-0.5")
	f.Add("restart-cost=-100ms")
	f.Add("bursts=16,bursts=2")
	f.Add("seed=-7,crashes=0")
	f.Add("drop-rate=0.25,drops=4,dup-rate=0.0625")
	f.Add("drop-rate=1.5")
	f.Add("drops=-2,dup-rate=0.5")
	f.Add("crashes=2,drop-rate=0.1,seed=3")
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
