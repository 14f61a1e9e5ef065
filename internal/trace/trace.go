// Package trace records per-rank execution spans from the simulated
// runtime and renders them as timelines, reproducing the HPCToolkit-style
// views of the paper's Fig. 2 and the schematic schedules of Fig. 3.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Span is one contiguous activity interval on one rank.
type Span struct {
	Rank     int
	Category string // "comp", "comm", "io"
	Label    string
	Start    sim.Time
	End      sim.Time
}

// Recorder collects spans; it implements the runtime's Tracer interface.
// The zero value is ready to use.
type Recorder struct {
	spans []Span
}

// Span records one interval. Zero-length spans are dropped.
func (rec *Recorder) Span(rank int, category, label string, start, end sim.Time) {
	if end <= start {
		return
	}
	rec.spans = append(rec.spans, Span{Rank: rank, Category: category, Label: label, Start: start, End: end})
}

// Spans returns the recorded spans in recording order.
func (rec *Recorder) Spans() []Span { return rec.spans }

// Len reports the number of recorded spans.
func (rec *Recorder) Len() int { return len(rec.spans) }

// Busy sums the recorded time per category for one rank.
func (rec *Recorder) Busy(rank int) map[string]sim.Time {
	out := make(map[string]sim.Time)
	for _, s := range rec.spans {
		if s.Rank == rank {
			out[s.Category] += s.End - s.Start
		}
	}
	return out
}

// Window reports the [min start, max end] covered by the recording.
func (rec *Recorder) Window() (sim.Time, sim.Time) {
	if len(rec.spans) == 0 {
		return 0, 0
	}
	lo, hi := sim.MaxTime, sim.Time(0)
	for _, s := range rec.spans {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return lo, hi
}

// categoryRunes maps span categories to timeline glyphs. Unknown
// categories render as '?'.
var categoryRunes = map[string]rune{
	"comp": '#', // computation (grey in the paper's Fig. 2)
	"comm": '.', // communication wait (blue)
	"io":   '~', // file I/O
}

// Timeline renders the recording as one text row per rank, bucketing time
// into width (at least 1) columns and showing each bucket's dominant
// category:
//
//	rank 0 |####..####..####|
//	rank 1 |######....######|
//
// '#' is computation, '.' is communication wait, '~' is I/O, ' ' is idle.
func (rec *Recorder) Timeline(w io.Writer, width int) error {
	lo, hi := rec.Window()
	if hi <= lo {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	seen := map[int]bool{}
	for _, s := range rec.spans {
		seen[s.Rank] = true
	}
	var ranks []int
	for r := range seen {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	span := hi - lo
	// Every span lies inside the window, so its buckets are in [0, width).
	bucket := func(t sim.Time) int { return int(int64(t-lo) * int64(width) / int64(span)) }
	// Per rank, per bucket, time per category.
	for _, rank := range ranks {
		occupancy := make([]map[rune]sim.Time, width)
		for _, s := range rec.spans {
			if s.Rank != rank {
				continue
			}
			glyph, ok := categoryRunes[s.Category]
			if !ok {
				glyph = '?'
			}
			for b := bucket(s.Start); b <= bucket(s.End-1); b++ {
				bLo := lo + sim.Time(int64(span)*int64(b)/int64(width))
				bHi := lo + sim.Time(int64(span)*int64(b+1)/int64(width))
				overlap := sim.Min(s.End, bHi) - sim.Max(s.Start, bLo)
				if overlap <= 0 {
					continue
				}
				if occupancy[b] == nil {
					occupancy[b] = make(map[rune]sim.Time)
				}
				occupancy[b][glyph] += overlap
			}
		}
		var row strings.Builder
		for b := 0; b < width; b++ {
			best, bestT := ' ', sim.Time(0)
			// Deterministic tie-break: iterate glyphs in fixed order.
			for _, g := range []rune{'#', '.', '~', '?'} {
				if tt := occupancy[b][g]; tt > bestT {
					best, bestT = g, tt
				}
			}
			row.WriteRune(best)
		}
		if _, err := fmt.Fprintf(w, "P%-3d |%s|\n", rank, row.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "      %s\n      legend: #=compute .=comm-wait ~=I/O  window %v .. %v\n",
		strings.Repeat("-", width+2), lo, hi)
	return err
}
