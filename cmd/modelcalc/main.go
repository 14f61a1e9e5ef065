// Command modelcalc evaluates the paper's analytic performance model
// (Section II-D, Eqs. 1-4) for a two-operation application and searches
// for the optimal decoupled-group fraction and stream granularity.
//
// Usage:
//
//	modelcalc -w0 100ms -w1 50ms -sigma 5ms -alpha 0.0625 -d 1073741824 -s 65536 -o 200ns
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// labelWidth is the width of the output's label column, padding
// included: wider than every label, and fixed so that the value column
// stays put when a label changes.
const labelWidth = 61

// run is the command: it parses args, writes the model's predictions to
// stdout and returns the exit status (2 for flags or parameters it
// refuses).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modelcalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		w0    = fs.Duration("w0", 100*time.Millisecond, "per-process time of the retained operation Op0")
		w1    = fs.Duration("w1", 50*time.Millisecond, "per-process time of the decoupled operation Op1 (conventional)")
		sigma = fs.Duration("sigma", 5*time.Millisecond, "expected process-imbalance time")
		alpha = fs.Float64("alpha", 0.0625, "fraction of processes dedicated to Op1")
		d     = fs.Int64("d", 1<<30, "total streamed volume D in bytes")
		s     = fs.Int64("s", 64<<10, "stream element granularity S in bytes")
		o     = fs.Duration("o", 200*time.Nanosecond, "per-element overhead o")
		gain  = fs.Float64("gain", 1, "Op1 speedup on the dedicated group (T'W1 = TW1/gain)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: modelcalc takes flags only, and would ignore every flag after it\n", fs.Arg(0))
		return 2
	}

	if !(*gain > 0) || math.IsInf(*gain, 1) {
		fmt.Fprintf(stderr, "-gain %v: the Op1 speedup must be positive and finite\n", *gain)
		return 2
	}
	tw1 := sim.FromSeconds(w1.Seconds())
	p := model.Params{
		TW0:    sim.FromSeconds(w0.Seconds()),
		TW1:    tw1,
		TSigma: sim.FromSeconds(sigma.Seconds()),
		Alpha:  *alpha,
		DecoupledTW1: func(float64) sim.Time {
			return sim.Time(float64(tw1) / *gain)
		},
		D:        *d,
		S:        *s,
		Overhead: sim.FromSeconds(o.Seconds()),
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, labelWidth, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Eq. 1 conventional Tc\t%v\n", model.Conventional(p))
	fmt.Fprintf(tw, "Eq. 2 ideal decoupled Td\t%v\n", model.DecoupledIdeal(p))
	fmt.Fprintf(tw, "Eq. 3 pipelined Td\t%v\n", model.DecoupledPipelined(p))
	fmt.Fprintf(tw, "Eq. 4 with overhead Td\t%v\n", model.Decoupled(p))
	fmt.Fprintf(tw, "speedup Tc/Td\t%.3f\n", model.Speedup(p))
	fmt.Fprintf(tw, "memory bound (streaming)\t%d bytes\n", model.MemoryBound(p, false))
	fmt.Fprintf(tw, "memory bound (buffered)\t%d bytes\n", model.MemoryBound(p, true))

	alphas := make([]float64, 63)
	for k := range alphas {
		alphas[k] = float64(k+1) / 64
	}
	bestA, tA := model.OptimalAlpha(p, alphas)
	fmt.Fprintf(tw, "optimal alpha over 1/64..63/64\t%g (Td %v)\n", bestA, tA)

	grains := []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	bestS, tS := model.OptimalGranularity(p, grains)
	fmt.Fprintf(tw, "optimal S over 1KiB..16MiB\t%d bytes (Td %v)\n", bestS, tS)
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
