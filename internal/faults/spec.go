package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Spec parameterizes a generated campaign: how many events of each
// family to scatter over the horizon, how long and how severe each one
// is. A Spec is declarative — Plan materializes it into a concrete
// event schedule, with every draw derived from (Seed, event id) via
// sim.Mix64, so equal specs always produce equal plans.
type Spec struct {
	// Seed drives every draw in campaign generation. It is independent
	// of the simulation seed: one campaign can be replayed against many
	// run seeds and vice versa.
	Seed int64
	// Horizon is the virtual-time span [0, Horizon) events are scattered
	// over.
	Horizon sim.Time

	// Bursts rank slowdown bursts of BurstLen, each slowing its target
	// rank's compute by BurstFactor.
	Bursts      int
	BurstLen    sim.Time
	BurstFactor float64

	// Outages full stripe outages of OutageLen.
	Outages   int
	OutageLen sim.Time

	// DerateStripes stripes degraded to DerateRate of nominal throughput
	// for the whole horizon.
	DerateStripes int
	DerateRate    float64

	// Flaps link degradation windows of FlapLen, multiplying wire
	// latency by LatencyFactor and NIC serialization by BandwidthFactor.
	Flaps           int
	FlapLen         sim.Time
	LatencyFactor   float64
	BandwidthFactor float64

	// Crashes crash-stop rank failures scattered uniformly over the
	// horizon, each killing one uniformly drawn rank and restarting it
	// after RestartCost.
	Crashes     int
	RestartCost sim.Time
}

// DefaultSpec is the reference campaign the resilience experiment and
// the CI smoke job scale: a handful of each fault family over a
// four-virtual-second horizon.
func DefaultSpec() Spec {
	return Spec{
		Seed:            1,
		Horizon:         4 * sim.Second,
		Bursts:          8,
		BurstLen:        200 * sim.Millisecond,
		BurstFactor:     10,
		Outages:         2,
		OutageLen:       400 * sim.Millisecond,
		DerateStripes:   4,
		DerateRate:      0.25,
		Flaps:           4,
		FlapLen:         250 * sim.Millisecond,
		LatencyFactor:   8,
		BandwidthFactor: 4,
		// Crash-stop failures are opt-in (Crashes stays 0 so the default
		// campaign — and every trajectory pinned against it — is
		// unchanged); RestartCost is the severity knob a crashing
		// campaign inherits.
		RestartCost: 250 * sim.Millisecond,
	}
}

// Scale returns the spec with its intensity axes — burst count, outage
// duration, degraded-stripe count, flap count — multiplied by x.
// Scale(0) yields a spec whose Plan is empty; severity knobs (factors,
// rates, burst/flap lengths) are left alone so a sweep varies how much
// degradation happens, not what one event looks like.
func (s Spec) Scale(x float64) Spec {
	if x < 0 {
		panic(fmt.Sprintf("faults: Scale(%v) negative", x))
	}
	s.Bursts = int(float64(s.Bursts) * x)
	s.OutageLen = sim.Time(float64(s.OutageLen) * x)
	s.DerateStripes = int(float64(s.DerateStripes) * x)
	s.Flaps = int(float64(s.Flaps) * x)
	s.Crashes = int(float64(s.Crashes) * x)
	if x == 0 {
		s.Outages = 0
	}
	return s
}

// Stream id bases keep each family's draws independent of the other
// families' event counts: adding bursts never moves an outage.
const (
	burstStreamBase  = 0 << 20
	outageStreamBase = 1 << 20
	derateStreamBase = 2 << 20
	flapStreamBase   = 3 << 20
	crashStreamBase  = 4 << 20
)

// eventRand is the (seed, event-id) stream: every event draws its start
// and target from its own generator, so campaigns replay exactly and
// event k is unaffected by how many events precede it.
func eventRand(seed int64, id int64) *rand.Rand {
	return rand.New(sim.NewSplitMix(sim.Mix64(seed, id)))
}

// startIn draws a window start leaving room for length within the
// horizon.
func startIn(rng *rand.Rand, horizon, length sim.Time) (sim.Time, sim.Time) {
	if length > horizon {
		length = horizon
	}
	room := int64(horizon - length)
	var at sim.Time
	if room > 0 {
		at = sim.Time(rng.Int63n(room + 1))
	}
	return at, length
}

// Plan materializes the campaign for a machine of the given shape.
// Targets are drawn uniformly (derated stripes as a prefix of a drawn
// permutation, so DerateStripes counts distinct stripes); events landing
// on the same target may overlap and are resolved earlier-wins at
// Compile time.
func (s Spec) Plan(ranks, stripes int) Plan {
	var p Plan
	if s.Horizon <= 0 {
		return p
	}
	for k := 0; k < s.Bursts && ranks > 0; k++ {
		rng := eventRand(s.Seed, burstStreamBase+int64(k))
		at, length := startIn(rng, s.Horizon, s.BurstLen)
		p.Events = append(p.Events, Event{
			Kind: RankBurst, At: at, Duration: length,
			Target: rng.Intn(ranks), Factor: s.BurstFactor,
		})
	}
	for k := 0; k < s.Outages && stripes > 0 && s.OutageLen > 0; k++ {
		rng := eventRand(s.Seed, outageStreamBase+int64(k))
		at, length := startIn(rng, s.Horizon, s.OutageLen)
		p.Events = append(p.Events, Event{
			Kind: StripeOutage, At: at, Duration: length,
			Target: rng.Intn(stripes),
		})
	}
	if n := s.DerateStripes; n > 0 && stripes > 0 {
		if n > stripes {
			n = stripes
		}
		rng := eventRand(s.Seed, derateStreamBase)
		perm := rng.Perm(stripes)
		for k := 0; k < n; k++ {
			p.Events = append(p.Events, Event{
				Kind: StripeDerate, Duration: s.Horizon,
				Target: perm[k], Factor: s.DerateRate,
			})
		}
	}
	for k := 0; k < s.Flaps; k++ {
		rng := eventRand(s.Seed, flapStreamBase+int64(k))
		at, length := startIn(rng, s.Horizon, s.FlapLen)
		if s.LatencyFactor > 1 {
			p.Events = append(p.Events, Event{
				Kind: LinkLatency, At: at, Duration: length, Factor: s.LatencyFactor,
			})
		}
		if s.BandwidthFactor > 1 {
			p.Events = append(p.Events, Event{
				Kind: LinkBandwidth, At: at, Duration: length, Factor: s.BandwidthFactor,
			})
		}
	}
	for k := 0; k < s.Crashes && ranks > 0; k++ {
		rng := eventRand(s.Seed, crashStreamBase+int64(k))
		at, _ := startIn(rng, s.Horizon, 0)
		p.Events = append(p.Events, Event{
			Kind: RankCrash, At: at, Duration: s.RestartCost,
			Target: rng.Intn(ranks),
		})
	}
	return p
}

// specKeys lists every key ParseSpec accepts, in canonical order; String
// emits overrides in this order and unknown-key errors quote the list.
var specKeys = []string{
	"seed", "horizon",
	"bursts", "burst-len", "burst-factor",
	"outages", "outage-len",
	"derate-stripes", "derate-rate",
	"flaps", "flap-len", "lat-factor", "bw-factor",
	"crashes", "restart-cost",
}

// SpecKeys returns the keys ParseSpec accepts, in canonical order, for
// help text and error messages.
func SpecKeys() []string {
	return append([]string(nil), specKeys...)
}

// String renders the spec in the compact syntax ParseSpec reads, as the
// minimal override list against DefaultSpec: ParseSpec(s.String()) == s
// for every spec. The zero spec renders as "none" and the default as
// "default".
func (s Spec) String() string {
	if s == (Spec{}) {
		return "none"
	}
	def := DefaultSpec()
	if s == def {
		return "default"
	}
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	num := func(key string, v, dv int) {
		if v != dv {
			add(key, strconv.Itoa(v))
		}
	}
	dur := func(key string, v, dv sim.Time) {
		if v != dv {
			add(key, time.Duration(v).String())
		}
	}
	flt := func(key string, v, dv float64) {
		if v != dv {
			add(key, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	if s.Seed != def.Seed {
		add("seed", strconv.FormatInt(s.Seed, 10))
	}
	dur("horizon", s.Horizon, def.Horizon)
	num("bursts", s.Bursts, def.Bursts)
	dur("burst-len", s.BurstLen, def.BurstLen)
	flt("burst-factor", s.BurstFactor, def.BurstFactor)
	num("outages", s.Outages, def.Outages)
	dur("outage-len", s.OutageLen, def.OutageLen)
	num("derate-stripes", s.DerateStripes, def.DerateStripes)
	flt("derate-rate", s.DerateRate, def.DerateRate)
	num("flaps", s.Flaps, def.Flaps)
	dur("flap-len", s.FlapLen, def.FlapLen)
	flt("lat-factor", s.LatencyFactor, def.LatencyFactor)
	flt("bw-factor", s.BandwidthFactor, def.BandwidthFactor)
	num("crashes", s.Crashes, def.Crashes)
	dur("restart-cost", s.RestartCost, def.RestartCost)
	return strings.Join(parts, ",")
}

// ParseSpec parses the compact campaign syntax of decouplebench's
// -faults flag: a comma-separated key=value list overriding DefaultSpec
// field by field, e.g.
//
//	bursts=16,burst-factor=20,outage-len=1s,derate-stripes=8,seed=7
//
// The literal "default" (or an empty string) is DefaultSpec unchanged;
// "none" is the zero Spec, whose plan is empty. Durations use Go
// duration syntax ("200ms"), interpreted as virtual time.
//
// Each key may appear at most once, and counts, factors and durations
// must be non-negative (only "seed" may be negative); violations are
// errors naming the offending key rather than silently-planned nonsense.
func ParseSpec(text string) (Spec, error) {
	s, _, err := ParseSpecKeys(text)
	return s, err
}

// ParseSpecKeys is ParseSpec that also returns the keys text sets, in the
// order given: none for "default", "none" or an empty text.
func ParseSpecKeys(text string) (Spec, []string, error) {
	s := DefaultSpec()
	text = strings.TrimSpace(text)
	switch text {
	case "", "default":
		return s, nil, nil
	case "none":
		return Spec{}, nil, nil
	}
	var keys []string
	for _, kv := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, nil, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "horizon":
			s.Horizon, err = parseDuration(val)
		case "bursts":
			s.Bursts, err = parseCount(val)
		case "burst-len":
			s.BurstLen, err = parseDuration(val)
		case "burst-factor":
			s.BurstFactor, err = parseFactor(val)
		case "outages":
			s.Outages, err = parseCount(val)
		case "outage-len":
			s.OutageLen, err = parseDuration(val)
		case "derate-stripes":
			s.DerateStripes, err = parseCount(val)
		case "derate-rate":
			s.DerateRate, err = parseFactor(val)
		case "flaps":
			s.Flaps, err = parseCount(val)
		case "flap-len":
			s.FlapLen, err = parseDuration(val)
		case "lat-factor":
			s.LatencyFactor, err = parseFactor(val)
		case "bw-factor":
			s.BandwidthFactor, err = parseFactor(val)
		case "crashes":
			s.Crashes, err = parseCount(val)
		case "restart-cost":
			s.RestartCost, err = parseDuration(val)
		default:
			return Spec{}, nil, fmt.Errorf("faults: unknown spec key %q (valid keys: %s)", key, strings.Join(specKeys, ", "))
		}
		if err != nil {
			return Spec{}, nil, fmt.Errorf("faults: bad value for %q: %v", key, err)
		}
		// A repeated key is almost always an edited-in-place campaign where
		// the old override was meant to go; last-wins would silently run a
		// different campaign than the one the operator thinks they asked for.
		if slices.Contains(keys, key) {
			return Spec{}, nil, fmt.Errorf("faults: duplicate spec key %q", key)
		}
		keys = append(keys, key)
	}
	return s, keys, nil
}

// parseCount reads a non-negative event count. Campaign generation treats
// counts as loop bounds, so a negative would silently plan nothing; refuse
// it instead.
func parseCount(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("count %d is negative", n)
	}
	return n, nil
}

// parseFactor reads a non-negative severity factor or rate. Negative
// slowdowns/rates have no physical reading (Plan would emit them into
// events Compile rejects much later, far from the flag that caused them).
func parseFactor(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 {
		return 0, fmt.Errorf("factor %v is negative", f)
	}
	return f, nil
}

// parseDuration reads a Go duration literal as non-negative virtual time.
func parseDuration(val string) (sim.Time, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %v is negative", d)
	}
	return sim.Time(d.Nanoseconds()), nil
}
