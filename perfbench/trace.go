package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share its op
// id; parent is the index of the enclosing span, or -1 for an op's
// root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory; write dumps them when
// the run ends. A nil *tracer records nothing, so the untraced run
// shares the workloads' code paths without paying for spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := int64(now().Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := int64(now().Sub(t.epoch))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// endAs closes span id and renames it, for spans whose name depends on
// the outcome of the call they time.
func (t *tracer) endAs(id int, name string) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, op, parent int, fn func() error) error {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return err
}

// selfMs sums each span name's self time in milliseconds: a span's
// duration minus the part of it that its child spans cover, scaled by
// scale(op) of the span's op.
func (t *tracer) selfMs(scale func(op int) float64) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for id, s := range t.spans {
		self := s.End - s.Start - covered(children[id], s.Start, s.End)
		out[s.Name] += float64(self) / float64(time.Millisecond) * scale(s.Op)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		start, end := max(s.Start, cur), min(s.End, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// durationsMs returns the durations in milliseconds of every span named
// name, each scaled by scale(op) of its op.
func (t *tracer) durationsMs(name string, scale func(op int) float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond)*scale(s.Op))
		}
	}
	return out
}

// write dumps the spans as JSON lines into path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
