// Package faults turns failure campaigns into deterministic, replayable
// event schedules. A Plan is an ordered list of timed fault events in
// four injector families — rank compute-slowdown bursts, file-system
// stripe outages/derates, link latency/bandwidth degradation, and
// crash-stop rank failures with restart — that compiles into the
// per-target schedules the runtime layers consume
// (mpi.Config.RankFaults/StripeFaults/LinkFaults/Crashes, sim.Bank stripe
// faults, netmodel.LinkFaults). Message loss and duplication are not a
// planned family: a lossy fabric is a netmodel.MsgFaults verdict table
// its caller builds directly and hands over in Injection.Msg.
//
// Every random draw in campaign generation derives from a
// (seed, event-id) stream via sim.Mix64, so a campaign is a pure
// function of its Spec: the same spec always yields the same plan, and
// a compiled plan injected into a run perturbs the trajectory
// deterministically — byte-identical across process representations and
// repeated runs (see the fault-determinism contract in the internal/sim
// package comment).
package faults

import (
	"fmt"
	"sort"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Kind identifies an injector family.
type Kind int

const (
	// RankBurst is a windowed multiplicative slowdown of one rank's
	// compute operations (Factor >= 1), layered on top of the noise
	// model.
	RankBurst Kind = iota
	// StripeOutage takes one file-system stripe fully offline for the
	// window: bookings straddling it stall until it lifts, and placement
	// flows around the stripe when a healthy one finishes sooner.
	StripeOutage
	// StripeDerate degrades one stripe to Factor times its nominal
	// throughput (0 < Factor < 1) for the window.
	StripeDerate
	// LinkLatency multiplies the wire latency of messages entering
	// flight inside the window (Factor >= 1).
	LinkLatency
	// LinkBandwidth multiplies the NIC serialization time of messages
	// injected inside the window (Factor >= 1).
	LinkBandwidth
	// RankCrash kills one rank at At (crash-stop) and restarts it after
	// Duration (the restart cost). Factor is ignored. Crash events
	// compile to sim.CrashEvent lists consumed by mpi.Config.Crashes.
	RankCrash
)

// String names the kind for logs and error messages.
func (k Kind) String() string {
	switch k {
	case RankBurst:
		return "rank-burst"
	case StripeOutage:
		return "stripe-outage"
	case StripeDerate:
		return "stripe-derate"
	case LinkLatency:
		return "link-latency"
	case LinkBandwidth:
		return "link-bandwidth"
	case RankCrash:
		return "rank-crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed fault: Kind decides the injector family, Target the
// rank or stripe index (ignored for the link kinds), and Factor the
// slowdown multiplier (RankBurst, LinkLatency, LinkBandwidth) or the
// remaining throughput fraction (StripeDerate; StripeOutage and RankCrash
// ignore it).
type Event struct {
	Kind     Kind
	At       sim.Time
	Duration sim.Time
	Target   int
	Factor   float64
}

// Plan is an ordered fault-event schedule. The zero Plan schedules
// nothing and compiles to an empty Injection.
type Plan struct {
	Events []Event
}

// Validate checks every event's shape (non-negative start, positive
// duration, factor in the kind's legal range, non-negative target).
func (p Plan) Validate() error {
	for i, e := range p.Events {
		// Crash durations are restart costs and may be zero (instant
		// respawn); every windowed kind needs a positive duration.
		if e.At < 0 || e.Duration < 0 || (e.Duration == 0 && e.Kind != RankCrash) {
			return fmt.Errorf("faults: event %d (%v) has window [%v, +%v)", i, e.Kind, e.At, e.Duration)
		}
		switch e.Kind {
		case RankBurst, LinkLatency, LinkBandwidth:
			if e.Factor < 1 {
				return fmt.Errorf("faults: event %d (%v) factor %v < 1", i, e.Kind, e.Factor)
			}
		case StripeDerate:
			if e.Factor <= 0 || e.Factor >= 1 {
				return fmt.Errorf("faults: event %d (%v) rate %v outside (0, 1)", i, e.Kind, e.Factor)
			}
		case StripeOutage, RankCrash:
			// no factor
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Kind != LinkLatency && e.Kind != LinkBandwidth && e.Target < 0 {
			return fmt.Errorf("faults: event %d (%v) targets %d", i, e.Kind, e.Target)
		}
	}
	return nil
}

// Injection is a compiled plan: the per-target window lists the runtime
// layers consume directly. All lists are sorted and non-overlapping.
type Injection struct {
	// Rank holds per-rank compute slowdown windows (mpi.Config.RankFaults).
	Rank [][]sim.FaultWindow
	// Stripe holds per-stripe outage/derate windows
	// (mpi.Config.StripeFaults or cluster.Config.StripeFaults).
	Stripe [][]sim.StripeFault
	// Link holds the network degradation windows (mpi.Config.LinkFaults);
	// nil when the plan schedules no link events.
	Link *netmodel.LinkFaults
	// Crash holds the crash-stop schedule (mpi.Config.Crashes), sorted
	// by (At, Target); nil when the plan schedules no crashes.
	Crash []sim.CrashEvent
	// Msg holds the message loss/duplication verdict table
	// (mpi.Config.MsgFaults). Compile never fills it: a caller running a
	// lossy fabric builds the table and sets it here. nil keeps the
	// reliable-delivery protocol disarmed.
	Msg *netmodel.MsgFaults
}

// Empty reports whether the injection perturbs nothing.
func (inj *Injection) Empty() bool {
	for _, ws := range inj.Rank {
		if len(ws) > 0 {
			return false
		}
	}
	for _, fs := range inj.Stripe {
		if len(fs) > 0 {
			return false
		}
	}
	if len(inj.Crash) > 0 {
		return false
	}
	if !inj.Msg.Empty() {
		return false
	}
	return inj.Link.Empty()
}

// window is the kind-neutral normalization currency.
type window struct {
	start, end sim.Time
	factor     float64
}

// normalize sorts ws by start and resolves overlaps with
// earlier-event-wins semantics: a window starting inside an earlier one
// is clipped to begin at the earlier window's end, and dropped if
// nothing remains. The result satisfies the sorted/non-overlapping
// contract of sim.ValidateWindows.
func normalize(ws []window) []window {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].start != ws[j].start {
			return ws[i].start < ws[j].start
		}
		return ws[i].end < ws[j].end
	})
	out := ws[:0]
	for _, w := range ws {
		if len(out) > 0 && w.start < out[len(out)-1].end {
			w.start = out[len(out)-1].end
		}
		if w.end <= w.start {
			continue
		}
		out = append(out, w)
	}
	return out
}

// Compile resolves the plan against a machine shape: events targeting
// ranks or stripes outside [0, ranks) / [0, stripes) are dropped, and
// overlapping windows on one target are resolved earlier-event-wins.
// Compilation is pure: the same (plan, ranks, stripes) always yields
// the same injection.
func (p Plan) Compile(ranks, stripes int) (Injection, error) {
	if err := p.Validate(); err != nil {
		return Injection{}, err
	}
	rankWs := make(map[int][]window)
	stripeWs := make(map[int][]window)
	var latWs, bwWs []window
	var crashes []sim.CrashEvent
	for _, e := range p.Events {
		w := window{e.At, e.At + e.Duration, e.Factor}
		switch e.Kind {
		case RankBurst:
			if e.Target < ranks {
				rankWs[e.Target] = append(rankWs[e.Target], w)
			}
		case StripeOutage:
			if e.Target < stripes {
				w.factor = 0
				stripeWs[e.Target] = append(stripeWs[e.Target], w)
			}
		case StripeDerate:
			if e.Target < stripes {
				stripeWs[e.Target] = append(stripeWs[e.Target], w)
			}
		case LinkLatency:
			latWs = append(latWs, w)
		case LinkBandwidth:
			bwWs = append(bwWs, w)
		case RankCrash:
			if e.Target < ranks {
				crashes = append(crashes, sim.CrashEvent{At: e.At, Target: e.Target, Restart: e.Duration})
			}
		}
	}
	var inj Injection
	if len(rankWs) > 0 {
		inj.Rank = make([][]sim.FaultWindow, ranks)
		for t, ws := range rankWs {
			for _, w := range normalize(ws) {
				inj.Rank[t] = append(inj.Rank[t], sim.FaultWindow{Start: w.start, End: w.end, Factor: w.factor})
			}
		}
	}
	if len(stripeWs) > 0 {
		inj.Stripe = make([][]sim.StripeFault, stripes)
		for t, ws := range stripeWs {
			for _, w := range normalize(ws) {
				inj.Stripe[t] = append(inj.Stripe[t], sim.StripeFault{Start: w.start, End: w.end, Rate: w.factor})
			}
		}
	}
	if len(latWs) > 0 || len(bwWs) > 0 {
		lf := &netmodel.LinkFaults{}
		for _, w := range normalize(latWs) {
			lf.Latency = append(lf.Latency, sim.FaultWindow{Start: w.start, End: w.end, Factor: w.factor})
		}
		for _, w := range normalize(bwWs) {
			lf.Bandwidth = append(lf.Bandwidth, sim.FaultWindow{Start: w.start, End: w.end, Factor: w.factor})
		}
		inj.Link = lf
	}
	if len(crashes) > 0 {
		sort.Slice(crashes, func(i, j int) bool {
			if crashes[i].At != crashes[j].At {
				return crashes[i].At < crashes[j].At
			}
			return crashes[i].Target < crashes[j].Target
		})
		inj.Crash = crashes
	}
	return inj, nil
}
