package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one cell run share Cell; Parent is the enclosing span's ID
// (0 for a rep, the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Cell    string `json:"cell,omitempty"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so the untraced path pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int  // IDs of the open spans, innermost last
	cell  string // identifier shared by the spans of the current cell run
	cells int    // cell runs begun so far
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginCell gives the spans recorded until the next call one identifier.
func (t *tracer) beginCell(name string) {
	if t != nil {
		t.cells++
		t.cell = fmt.Sprintf("%s#%d", name, t.cells)
	}
}

// endCell makes later spans belong to no cell.
func (t *tracer) endCell() {
	if t != nil {
		t.cell = ""
	}
}

// do runs fn inside a span called name. While a CPU profile is running the
// samples fn causes carry a span=<name> label, which is how the profile rows
// are restricted to the interior of the Engine.Run spans.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: t.cell})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.spans[id-1].StartNs = int64(start)
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanSeconds sums the durations of the spans called name.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
