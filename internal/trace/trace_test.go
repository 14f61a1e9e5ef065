package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderCollectsAndDropsEmpty(t *testing.T) {
	var rec Recorder
	rec.Span(0, "comp", "mover", 0, 100)
	rec.Span(0, "comm", "wait", 100, 100) // zero-length: dropped
	rec.Span(1, "io", "write", 50, 150)
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
}

func TestBusyAggregation(t *testing.T) {
	var rec Recorder
	rec.Span(0, "comp", "a", 0, 100)
	rec.Span(0, "comp", "b", 100, 250)
	rec.Span(0, "comm", "w", 250, 300)
	rec.Span(1, "comp", "c", 0, 999)
	busy := rec.Busy(0)
	if busy["comp"] != 250 || busy["comm"] != 50 {
		t.Fatalf("Busy(0) = %v", busy)
	}
}

func TestWindow(t *testing.T) {
	var rec Recorder
	if lo, hi := rec.Window(); lo != 0 || hi != 0 {
		t.Fatalf("empty window = %v..%v", lo, hi)
	}
	rec.Span(0, "comp", "", 200, 300)
	rec.Span(1, "comp", "", 100, 250)
	lo, hi := rec.Window()
	if lo != 100 || hi != 300 {
		t.Fatalf("window = %v..%v, want 100..300", lo, hi)
	}
}

func TestTimelineShape(t *testing.T) {
	var rec Recorder
	// Rank 0: compute then comm; rank 1: all compute.
	rec.Span(0, "comp", "", 0, 50*sim.Millisecond)
	rec.Span(0, "comm", "", 50*sim.Millisecond, 100*sim.Millisecond)
	rec.Span(1, "comp", "", 0, 100*sim.Millisecond)
	var buf bytes.Buffer
	if err := rec.Timeline(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "P0") || !strings.HasPrefix(lines[1], "P1") {
		t.Fatalf("unexpected rows:\n%s", out)
	}
	row0 := lines[0][strings.Index(lines[0], "|")+1:]
	if !strings.HasPrefix(row0, "##########") || !strings.Contains(row0, "..........") {
		t.Fatalf("rank 0 row %q does not show half compute half comm", row0)
	}
	row1 := lines[1][strings.Index(lines[1], "|")+1:]
	if strings.ContainsAny(row1, ".~ ") {
		t.Fatalf("rank 1 row %q should be all compute", row1)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var rec Recorder
	var buf bytes.Buffer
	if err := rec.Timeline(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("empty trace output: %q", buf.String())
	}
}
