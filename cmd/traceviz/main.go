// Command traceviz renders the paper's trace figures as ASCII timelines:
// Fig. 2 (iPIC3D particle communication, reference vs decoupled, on seven
// processes) and Fig. 3 (conceptual schedules of the conventional,
// non-blocking and decoupled models).
//
// Usage:
//
//	traceviz -fig 2
//	traceviz -fig 3 -width 120
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, renders the figure to stdout and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 2, "figure to render: 2 or 3")
	width := fs.Int("width", 100, "timeline width in columns")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: traceviz takes flags only, and would ignore every flag after it\n", fs.Arg(0))
		return 2
	}
	if *width < 1 {
		fmt.Fprintf(stderr, "-width: %d is not a positive column count\n", *width)
		return 2
	}

	var err error
	switch *fig {
	case 2:
		err = experiments.Fig2(stdout, *width)
	case 3:
		err = experiments.Fig3(stdout, *width)
	default:
		err = fmt.Errorf("unknown figure %d (supported: 2, 3)", *fig)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
