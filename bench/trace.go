package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval the harness recorded around a call into a layer:
// run -> workload -> invocation -> experiment, and layers -> driver. Times
// are seconds since the tracer started. Spans stay in memory until the
// benchmark ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // filled in by write
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span now; end closes it.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, t.now(), 0)
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, parent int, start, end float64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover; overlapping children are counted once.
func selfTimes(spans []span) []float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans, with self times, as JSON.
func (t *tracer) write(path string) error {
	for i, s := range selfTimes(t.spans) {
		t.spans[i].Self = s
	}
	data, err := json.MarshalIndent(map[string][]span{"spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
