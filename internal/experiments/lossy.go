package experiments

import (
	"fmt"

	"repro/internal/apps/ipic3d"
	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The lossy experiment sweeps fabric loss rate against the three Fig. 8
// particle-I/O implementations at a fixed scale. Each non-zero rate
// arms the reliable-delivery protocol (ack, virtual-time timeout,
// exponential backoff, retransmit) with a uniform per-transmission drop
// probability and a quarter-rate duplication probability; rate 0 is the
// clean run the resilience sweep divides by too. It reports, per variant:
//
//   - one "inflation" row per non-zero rate whose Seconds column carries
//     makespan(rate) / makespan(clean) — how much the retransmission
//     traffic stretches the critical path;
//   - one "retransmits" row per non-zero rate carrying the count of
//     timer-driven re-sends the protocol issued;
//   - one "goodput" row per non-zero rate carrying logical sends over
//     total transmissions, Messages / (Messages + Retransmits);
//   - one "degradation-slope" row carrying the least-squares slope of
//     inflation over loss rate — the variant's marginal cost per unit of
//     loss. Decoupling's slope should not exceed either reference: its
//     producers pace themselves against the ack window and the I/O
//     group's buffering keeps retransmission stalls off the write path,
//     while the synchronous writers serialize every recovered message.
//     All three slopes are near zero at these rates (microsecond-scale
//     retransmissions against second-scale file I/O), so the CI gate
//     compares them with a small absolute tolerance rather than
//     strictly — it catches a variant melting down, not slope noise.
//
// The verdict-stream seeds fold the run seed (sim.Mix64), so repetitions
// see different loss placements while everything stays replayable.

// lossyProcs is the sweep's fixed world size: the resilience sweep's, for
// comparable rows and one shared clean run.
const lossyProcs = resilienceProcs

// lossyRates are the per-transmission drop probabilities swept per
// variant. Rate 0 is the clean baseline every ratio divides by. The top
// rate stays well below the point where nine attempts (the default
// retry cap) could plausibly all be lost for any message in the run.
var lossyRates = []float64{0, 0.02, 0.05, 0.1}

// lossyOutcome is one (variant, seed) sweep: makespan, retransmit count
// and logical message count per rate.
type lossyOutcome struct {
	makespan    map[float64]float64
	retransmits map[float64]float64
	messages    map[float64]float64
}

// inflation is makespan(rate) over the clean makespan.
func (o lossyOutcome) inflation(rate float64) float64 {
	return slowdownRatio(o.makespan[rate], o.makespan[0])
}

// goodput is the fraction of transmissions that were first sends.
func (o lossyOutcome) goodput(rate float64) float64 {
	total := o.messages[rate] + o.retransmits[rate]
	if total == 0 {
		return 1
	}
	return o.messages[rate] / total
}

// lossyRun measures one variant under every loss rate at one seed. The
// sweep runs classic single-engine mode: the reliable protocol's ack and
// timer machinery is engine-local and RunIO rejects sharded lossy runs.
func lossyRun(v ipic3d.IOVariant, seed int64) (lossyOutcome, error) {
	out := lossyOutcome{
		makespan:    make(map[float64]float64, len(lossyRates)),
		retransmits: make(map[float64]float64, len(lossyRates)),
		messages:    make(map[float64]float64, len(lossyRates)),
	}
	for _, rate := range lossyRates {
		var inj *faults.Injection
		if rate > 0 {
			inj = &faults.Injection{Msg: &netmodel.MsgFaults{
				DropSeed: sim.Mix64(0x1055, seed),
				DropRate: rate,
				DupSeed:  sim.Mix64(0xd0b1e, seed),
				DupRate:  rate / 4,
			}}
		}
		res, err := fig8Faulted(v, seed, inj)
		if err != nil {
			return lossyOutcome{}, err
		}
		out.makespan[rate] = res.Time.Seconds()
		out.retransmits[rate] = float64(res.Retransmits)
		out.messages[rate] = float64(res.Messages)
	}
	return out, nil
}

// Lossy regenerates the fabric loss-rate sweep: Fig. 8 variant x drop
// probability, with makespan-inflation, retransmit-count, goodput and
// degradation-slope rows. Param carries the loss rate (0 for the slope
// row, which summarizes the whole sweep).
func Lossy(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	variants := []ipic3d.IOVariant{ipic3d.IOCollective, ipic3d.IOShared, ipic3d.IODecoupled}
	var points []point
	for _, v := range variants {
		out := newMemo(func(seed int64) (lossyOutcome, error) {
			return lossyRun(v, seed)
		})
		row := func(series string, rate float64) Row {
			return Row{Experiment: "lossy", Series: fmt.Sprintf("%s %s", v, series),
				Procs: lossyProcs, Param: rate}
		}
		for _, rate := range lossyRates[1:] {
			points = append(points,
				point{row: row("inflation", rate), fn: read(out, func(o lossyOutcome) float64 { return o.inflation(rate) })},
				point{row: row("retransmits", rate), fn: read(out, func(o lossyOutcome) float64 { return o.retransmits[rate] })},
				point{row: row("goodput", rate), fn: read(out, func(o lossyOutcome) float64 { return o.goodput(rate) })})
		}
		// The clean point contributes inflation 1 at rate 0.
		points = append(points, point{row: row("degradation-slope", 0),
			fn: read(out, func(o lossyOutcome) float64 { return slope(lossyRates, o.inflation) })})
	}
	return runPoints(opts, points)
}
