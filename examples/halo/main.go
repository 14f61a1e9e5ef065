// Halo demonstrates the CG case study: a miniature Fig. 6 comparing the
// blocking, non-blocking and decoupled halo-exchange implementations at
// simulated scale.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/cg"
)

func main() {
	fmt.Println("miniature Fig. 6 (weak scaling, 120^3 points/proc, 30 iterations):")
	for _, p := range []int{32, 128, 512} {
		cfg := cg.DefaultConfig(p)
		var times []string
		for _, v := range []cg.Variant{cg.Blocking, cg.Nonblocking, cg.Decoupled} {
			res, err := cg.Run(cfg, v)
			if err != nil {
				log.Fatal(err)
			}
			times = append(times, fmt.Sprintf("%s=%6.2fs", v, res.Time.Seconds()))
		}
		fmt.Printf("  procs=%4d  %s  %s  %s\n", p, times[0], times[1], times[2])
	}
}
