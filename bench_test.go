// Package repro's benchmark harness regenerates every figure of the
// paper's evaluation (one benchmark per figure) plus the ablations from
// DESIGN.md. Each benchmark runs the corresponding experiment sweep and
// logs the regenerated rows; -v shows them.
//
// The sweeps default to 256 processes so `go test -bench=.` stays
// affordable; set REPRO_MAX_PROCS (e.g. 8192 for the paper's full scale)
// to extend them, and REPRO_RUNS to average over more seeds. Sweep points
// run concurrently on one goroutine per CPU with bit-identical output for
// any worker count, and under a relaxed GC target tunable with REPRO_GOGC.
// The full-scale sweep is also available through cmd/decouplebench.
package repro

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
)

// benchOptions derives experiment options from the environment.
func benchOptions() experiments.Options {
	opts := experiments.Options{MaxProcs: 256, Runs: 1}
	if v, err := strconv.Atoi(os.Getenv("REPRO_MAX_PROCS")); err == nil && v >= 32 {
		opts.MaxProcs = v
	}
	if v, err := strconv.Atoi(os.Getenv("REPRO_RUNS")); err == nil && v > 0 {
		opts.Runs = v
	}
	return opts
}

// runFigure executes one registered experiment per benchmark iteration and
// logs its rows.
func runFigure(b *testing.B, name string) {
	b.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	opts := benchOptions()
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
}

// BenchmarkFig5MapReduce regenerates Fig. 5: MapReduce weak scaling,
// reference vs decoupling at alpha = 12.5%, 6.25% and 3.125%.
func BenchmarkFig5MapReduce(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig6CG regenerates Fig. 6: CG solver weak scaling with
// blocking, non-blocking and decoupled halo exchange.
func BenchmarkFig6CG(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFig7ParticleComm regenerates Fig. 7: iPIC3D particle
// communication, reference forwarding vs decoupled streaming.
func BenchmarkFig7ParticleComm(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8ParticleIO regenerates Fig. 8: iPIC3D particle I/O,
// write_all and write_shared references vs the decoupled I/O group.
func BenchmarkFig8ParticleIO(b *testing.B) { runFigure(b, "fig8") }

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

// BenchmarkAblationGranularity sweeps the stream element size S (Eq. 4's
// pipelining-versus-overhead trade-off, DESIGN.md design choice 1).
func BenchmarkAblationGranularity(b *testing.B) { runFigure(b, "ablation-granularity") }

// BenchmarkAblationAlpha sweeps the decoupled group fraction on MapReduce
// beyond the paper's three values (design choice 2).
func BenchmarkAblationAlpha(b *testing.B) { runFigure(b, "ablation-alpha") }

// BenchmarkAblationFCFS compares first-come-first-served against
// fixed-order stream consumption (design choice 3, the imbalance
// absorption mechanism).
func BenchmarkAblationFCFS(b *testing.B) { runFigure(b, "ablation-fcfs") }

// BenchmarkModelValidation compares Eq. 1 and Eq. 4 predictions against
// simulator measurements on the synthetic two-operation application.
func BenchmarkModelValidation(b *testing.B) { runFigure(b, "model") }
