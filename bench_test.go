// Package repro's benchmark harness regenerates every registered
// experiment (the paper's Fig. 5-8 sweeps, the model validation, the
// ablations from DESIGN.md and the extensions) plus the Fig. 2 and Fig. 3
// renderings. Each benchmark logs the regenerated rows; -v shows them.
//
// The sweeps run at 256 processes, one seed and one worker, so
// `go test -bench=.` stays affordable and a CPU profile sees the
// simulator rather than the sweep pool. BenchmarkExperiments is also the
// generator of the CLI's profile-guided build (DESIGN.md, "The CLI is
// compiled against a profile of its own sweeps"):
//
//	go test -run=NONE -bench=BenchmarkExperiments -benchtime=10x -cpuprofile=cmd/decouplebench/default.pgo .
//
// The full-scale sweep is available through cmd/decouplebench.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkExperiments runs every registered experiment once per
// iteration, one sub-benchmark each, and logs its rows.
func BenchmarkExperiments(b *testing.B) {
	opts := experiments.Options{MaxProcs: 256, Runs: 1, Workers: 1}
	for _, name := range experiments.Names() {
		e, _ := experiments.Lookup(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := e.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var buf bytes.Buffer
					if err := experiments.FormatTable(&buf, rows); err != nil {
						b.Fatal(err)
					}
					b.Logf("regenerated %s (max procs %d):\n%s", name, opts.MaxProcs, buf.String())
				}
			}
		})
	}
}

// BenchmarkFig2Trace regenerates Fig. 2: the seven-process iPIC3D traces
// (reference vs decoupled particle communication).
func BenchmarkFig2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.Fig2(&buf, 100); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", buf.String())
		}
	}
}

// BenchmarkFig3Schedules regenerates Fig. 3: the conceptual schedules of
// the conventional, non-blocking and decoupled models.
func BenchmarkFig3Schedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.Fig3(&buf, 100); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", buf.String())
		}
	}
}
