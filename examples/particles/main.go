// Particles demonstrates the iPIC3D case study: the Fig. 2 traces
// contrasting the reference and decoupled particle communication on seven
// processes, then a miniature Fig. 7/8 scaling comparison.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/apps/ipic3d"
	"repro/internal/experiments"
)

func main() {
	// Fig. 2: the execution traces.
	if err := experiments.Fig2(os.Stdout, 88); err != nil {
		log.Fatal(err)
	}

	// Miniature Fig. 7 and Fig. 8.
	fmt.Println("\nminiature Fig. 7 (particle communication):")
	for _, p := range []int{32, 128, 512} {
		cfg := ipic3d.DefaultConfig(p)
		ref, err := ipic3d.RunCommReference(cfg)
		if err != nil {
			log.Fatal(err)
		}
		dec, err := ipic3d.RunCommDecoupled(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  procs=%4d reference=%6.2fs decoupled=%6.2fs\n",
			p, ref.Time.Seconds(), dec.Time.Seconds())
	}
	fmt.Println("\nminiature Fig. 8 (particle I/O):")
	for _, p := range []int{32, 128, 512} {
		cfg := ipic3d.DefaultConfig(p)
		var times []string
		for _, v := range []ipic3d.IOVariant{ipic3d.IOCollective, ipic3d.IOShared, ipic3d.IODecoupled} {
			res, err := ipic3d.RunIO(cfg, v)
			if err != nil {
				log.Fatal(err)
			}
			times = append(times, fmt.Sprintf("%s=%6.2fs", v, res.Time.Seconds()))
		}
		fmt.Printf("  procs=%4d  %s %s %s\n", p, times[0], times[1], times[2])
	}
}
