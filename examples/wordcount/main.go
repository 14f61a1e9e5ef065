// Wordcount demonstrates the MapReduce case study: a miniature Fig. 5
// comparing the reference and decoupled implementations at simulated
// scale.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/mapreduce"
)

func main() {
	fmt.Println("miniature Fig. 5 (weak scaling, simulated):")
	for _, p := range []int{32, 128} {
		cfg := mapreduce.DefaultConfig(p)
		ref, err := mapreduce.RunReference(cfg)
		if err != nil {
			log.Fatal(err)
		}
		dec, err := mapreduce.RunDecoupled(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  procs=%4d reference=%7.2fs decoupled=%7.2fs speedup=%.2fx\n",
			p, ref.Time.Seconds(), dec.Time.Seconds(), float64(ref.Time)/float64(dec.Time))
	}
}
