package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer's public function, recorded by the traced
// replay: its name, its interval, the span that caused it and the sweep point
// it served. Times are nanoseconds since the trace began; allocation counts
// are the process's cumulative heap allocation at the two ends.
type span struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"` // index into the span list, -1 for a root
	Point      int    `json:"point"`  // sweep point index, -1 outside a point
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocStart uint64 `json:"alloc_start_bytes"`
	AllocEnd   uint64 `json:"alloc_end_bytes"`
}

// tracer keeps the spans of one single-threaded replay in memory. Spans nest
// by call order: begin pushes, end pops. A nil tracer records nothing, so
// the set-up shares the replay's build code untraced.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	point  int
	// counts holds the work counters recorded at the same call boundaries.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		point:  -1,
		counts: make(map[string]float64),
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Point: t.point,
		AllocStart: allocatedBytes(),
		StartNS:    time.Since(t.origin).Nanoseconds(),
	})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndNS = time.Since(t.origin).Nanoseconds()
	s.AllocEnd = allocatedBytes()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("trace: span %q closed out of order", s.Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// add adds v to the named counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// raise lifts the named counter to v if v is larger.
func (t *tracer) raise(name string, v float64) {
	if t != nil {
		t.counts[name] = max(t.counts[name], v)
	}
}

// forPoint runs f with every span it opens attributed to sweep point i.
func (t *tracer) forPoint(i int, f func() error) error {
	if t == nil {
		return f()
	}
	prev := t.point
	t.point = i
	defer func() { t.point = prev }()
	return f()
}

// call records f as one span named name.
func call[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	id := t.begin(name)
	v, err := f()
	t.end(id)
	return v, err
}

// within records f, and every span f opens, under one span named name.
func (t *tracer) within(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfCost is a span name's summed self time and self allocation: each
// span's own interval minus the part its direct children cover.
type selfCost struct {
	Seconds float64
	Bytes   float64
	Calls   int
}

// selfCosts sums the self time and self allocation of the spans per name.
// Children of one span never overlap, because the replay is single-threaded.
func selfCosts(spans []span) map[string]selfCost {
	childNS := make([]int64, len(spans))
	childBytes := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
			childBytes[s.Parent] += s.AllocEnd - s.AllocStart
		}
	}
	out := make(map[string]selfCost)
	for i, s := range spans {
		c := out[s.Name]
		c.Seconds += float64(s.EndNS-s.StartNS-childNS[i]) / 1e9
		c.Bytes += float64(s.AllocEnd - s.AllocStart - childBytes[i])
		c.Calls++
		out[s.Name] = c
	}
	return out
}
