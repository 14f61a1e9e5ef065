// Lossy walks a lossy fabric end to end: a netmodel.MsgFaults verdict
// table (drop and duplication rates, planned single-message drops) built
// directly, a two-rank world showing the reliable-delivery protocol
// (ack, virtual-time timeout, exponential backoff, retransmit)
// recovering a planned drop, and the three Fig. 8 particle-I/O
// implementations run under increasing loss. Verdicts are pure hashes of
// (seed, src, dst, seq, attempt) — no generator state — so every row
// replays bit-for-bit, and any cell can be re-run in isolation.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/ipic3d"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

const (
	procs = 64
	// seed derives the verdict streams of the loss sweep.
	seed = 1
)

func main() {
	// 1. The protocol in miniature: drop the first transmission of the
	// 0->1 pair by coupon. The receive still completes — one
	// retransmission, timed by the virtual-clock ack timeout.
	mf := &netmodel.MsgFaults{
		Drops: map[netmodel.MsgDropKey]bool{{Src: 0, Dst: 1, Seq: 0}: true},
	}
	w := mpi.NewWorld(mpi.Config{Procs: 2, Seed: 1, MsgFaults: mf})
	var recvAt sim.Time
	if _, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 1, 4096, nil)
		} else {
			c.Recv(r, 0, 1)
			recvAt = r.Now()
		}
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned drop of (0->1, seq 0): delivered at %v after %d retransmit(s)\n\n",
		recvAt, w.Retransmits())

	// 2. The Fig. 8 variants under increasing loss. Makespans barely move
	// — microsecond retransmissions against second-scale file I/O — but
	// the retransmit and goodput columns show the protocol working, and
	// the decoupled producers pace themselves against the ack window.
	for _, v := range []ipic3d.IOVariant{ipic3d.IOCollective, ipic3d.IOShared, ipic3d.IODecoupled} {
		fmt.Printf("%s:\n  %-10s %12s %12s %10s\n", v, "drop-rate", "makespan", "retransmits", "goodput")
		for _, rate := range []float64{0, 0.02, 0.1} {
			c := ipic3d.DefaultConfig(procs)
			if rate > 0 {
				c.Faults = &faults.Injection{Msg: &netmodel.MsgFaults{
					DropSeed: sim.Mix64(seed, 1), DropRate: rate,
					DupSeed: sim.Mix64(seed, 2), DupRate: rate / 4,
				}}
			}
			res, err := ipic3d.RunIO(c, v)
			if err != nil {
				log.Fatal(err)
			}
			goodput := 1.0
			if total := res.Messages + res.Retransmits; total > 0 {
				goodput = float64(res.Messages) / float64(total)
			}
			fmt.Printf("  %-10g %12v %12d %9.4f\n", rate, res.Time, res.Retransmits, goodput)
		}
		fmt.Println()
	}
}
