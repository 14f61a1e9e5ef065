// Package model implements the paper's analytic performance model
// (Section II-D, Eqs. 1-4) for an application with two operations Op0 and
// Op1, where Op1 is decoupled onto a fraction α of the processes.
package model

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Params are the quantities of Eqs. 1-4.
type Params struct {
	// TW0 is the per-process time of the retained operation Op0 when all
	// P processes participate.
	TW0 sim.Time
	// TW1 is the per-process time of the decoupled operation Op1 in the
	// conventional model (all P processes participate).
	TW1 sim.Time
	// TSigma is the expected time lost to process imbalance per stage.
	TSigma sim.Time
	// Alpha is the fraction of processes dedicated to Op1 (0 < α < 1).
	Alpha float64
	// beta replaces DefaultBeta's β(S) in Eq. 4, the non-overlapped
	// fraction of Op0 as a function of the stream granularity S. The
	// tests pin Eq. 3 at β = 0 and β = 1 with it, values no S reaches.
	beta func(S int64) float64
	// DecoupledTW1 is T'W1: the per-process time of Op1 once it runs on
	// the decoupled group (after optimization / complexity reduction).
	// Nil means Op1 keeps its conventional per-process time.
	DecoupledTW1 func(alpha float64) sim.Time
	// D is the total volume streamed between the groups, in bytes.
	D int64
	// S is the stream element granularity, in bytes.
	S int64
	// Overhead is o: the per-element cost of building and injecting one
	// stream element.
	Overhead sim.Time
}

// Validate reports whether the parameters are in the model's domain.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("model: alpha %v outside (0,1)", p.Alpha)
	}
	if p.TW0 < 0 || p.TW1 < 0 || p.TSigma < 0 || p.Overhead < 0 {
		return fmt.Errorf("model: negative time parameter")
	}
	if p.D < 0 || p.S < 0 {
		return fmt.Errorf("model: negative volume")
	}
	if p.S > 0 && p.D > 0 && p.S > p.D {
		return fmt.Errorf("model: granularity S=%d exceeds total volume D=%d", p.S, p.D)
	}
	return nil
}

// tw1Decoupled resolves T'W1.
func (p Params) tw1Decoupled() sim.Time {
	if p.DecoupledTW1 != nil {
		return p.DecoupledTW1(p.Alpha)
	}
	return p.TW1
}

// nonOverlap resolves β(S).
func (p Params) nonOverlap() float64 {
	if p.beta != nil {
		return clamp01(p.beta(p.S))
	}
	return DefaultBeta.Of(p.S)
}

// Conventional is Eq. 1: Tc = TW0 + Tσ + TW1.
func Conventional(p Params) sim.Time {
	return p.TW0 + p.TSigma + p.TW1
}

// DecoupledIdeal is Eq. 2: the two operations progress fully in parallel,
// Td = max(TW0/(1-α) + Tσ, T'W1/α).
func DecoupledIdeal(p Params) sim.Time {
	op0 := scale(p.TW0, 1/(1-p.Alpha)) + p.TSigma
	op1 := scale(p.tw1Decoupled(), 1/p.Alpha)
	return sim.Max(op0, op1)
}

// DecoupledPipelined is Eq. 3: only a β fraction of Op0 fails to overlap,
// Td = β·[TW0/(1-α) + Tσ] + T'W1/α (pessimistic assumption that Op1
// finishes after Op0).
func DecoupledPipelined(p Params) sim.Time {
	op0 := scale(p.TW0, 1/(1-p.Alpha)) + p.TSigma
	op1 := scale(p.tw1Decoupled(), 1/p.Alpha)
	return scale(op0, p.nonOverlap()) + op1
}

// Decoupled is Eq. 4: Eq. 3 plus the streaming overhead (D/S)·o, with β a
// function of the granularity S.
func Decoupled(p Params) sim.Time {
	overhead := sim.Time(0)
	if p.S > 0 {
		elements := float64(p.D) / float64(p.S)
		overhead = scale(p.Overhead, elements)
	}
	op0 := scale(p.TW0, 1/(1-p.Alpha)) + p.TSigma + overhead
	op1 := scale(p.tw1Decoupled(), 1/p.Alpha)
	return scale(op0, p.nonOverlap()) + op1
}

// Bracket predicts the decoupled time by the form that holds for the
// critical group, and names that group: 1 when Op1 is critical, 0 when
// Op0 is. Eq. 3 and Eq. 4 assume Op1 finishes after Op0 has fed it all
// its data. When T'W1/α >= TW0/(1-α) + Tσ, Op1 is the critical path and
// the producers' time hides under it, so the time is Eq. 2's max; one
// element of pipeline fill would need the group sizes, which Params does
// not carry. Otherwise Op0 is critical and the form is Eq. 4.
func Bracket(p Params) (sim.Time, int) {
	op0 := scale(p.TW0, 1/(1-p.Alpha)) + p.TSigma
	if op1 := scale(p.tw1Decoupled(), 1/p.Alpha); op1 >= op0 {
		return op1, 1
	}
	return Decoupled(p), 0
}

// Speedup is Tc / Td under Eq. 4.
func Speedup(p Params) float64 {
	td := Decoupled(p)
	if td <= 0 {
		return math.Inf(1)
	}
	return float64(Conventional(p)) / float64(td)
}

// MemoryBound reports the paper's Section II-D memory argument: the
// consumer-side memory needed by the decoupled approach. Processed-and-
// discarded streams need only S; fully buffered streams need D.
func MemoryBound(p Params, buffered bool) int64 {
	if buffered {
		return p.D
	}
	return p.S
}

// OptimalAlpha searches candidate fractions and returns the α minimizing
// Eq. 4, with its predicted time.
func OptimalAlpha(p Params, candidates []float64) (float64, sim.Time) {
	best, bestT := 0.0, sim.MaxTime
	for _, a := range candidates {
		if a <= 0 || a >= 1 {
			continue
		}
		q := p
		q.Alpha = a
		if t := Decoupled(q); t < bestT {
			best, bestT = a, t
		}
	}
	return best, bestT
}

// OptimalGranularity searches candidate element sizes and returns the S
// minimizing Eq. 4, with its predicted time. This is the paper's
// granularity trade-off: small S pipelines better (smaller β) but pays
// more per-element overhead.
func OptimalGranularity(p Params, candidates []int64) (int64, sim.Time) {
	best, bestT := int64(0), sim.MaxTime
	for _, s := range candidates {
		if s <= 0 {
			continue
		}
		q := p
		q.S = s
		if t := Decoupled(q); t < bestT {
			best, bestT = s, t
		}
	}
	return best, bestT
}

// BetaModel maps stream granularity to the non-overlapped fraction β(S):
// β falls toward Min as elements shrink (finer-grained flow pipelines
// better) and approaches 1 as one element grows to cover the whole
// transfer.
type BetaModel struct {
	// Min is the best achievable non-overlapped fraction (β at S -> 0).
	Min float64
	// Half is the granularity at which β is halfway between Min and 1.
	Half int64
}

// DefaultBeta is a moderate pipelining model: 10% of Op0 cannot overlap
// even with the finest stream, and pipelining degrades around 1 MiB
// elements.
var DefaultBeta = BetaModel{Min: 0.1, Half: 1 << 20}

// Of evaluates β(S).
func (b BetaModel) Of(S int64) float64 {
	if S <= 0 {
		return clamp01(b.Min)
	}
	frac := float64(S) / (float64(S) + float64(b.Half))
	return clamp01(b.Min + (1-b.Min)*frac)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func scale(t sim.Time, f float64) sim.Time {
	return sim.Time(float64(t) * f)
}
