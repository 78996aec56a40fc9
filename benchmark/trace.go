package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); the spans of one operation share
// Op. Times are nanoseconds since the tracer started.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until write. A nil *tracer is tracing
// switched off: every method is a no-op, so the measured path is the same
// code with and without spans.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

// newTracer returns a tracer whose span times count from t0.
func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, spans: make([]span, 0, 1<<14)} }

// nextOp starts a new operation identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), EndNS: -1, Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(time.Since(t.t0))
	}
}

// child records an interval the program reported itself (a StepStats or
// PhaseTimings duration) as a span of length d starting at offset off
// inside parent, and returns the offset at which it ends.
func (t *tracer) child(name string, parent int, off, d time.Duration) time.Duration {
	if t != nil {
		start := t.spans[parent].StartNS + int64(off)
		t.spans = append(t.spans, span{Name: name, StartNS: start, EndNS: start + int64(d), Parent: parent, Op: t.op})
	}
	return off + d
}

// append adds o's spans after t's own, keeping parents and operation
// identifiers distinct, so one file can hold the spans of several workloads.
func (t *tracer) append(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op += t.op
		t.spans = append(t.spans, s)
	}
	t.op += o.op
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.StartNS
		for _, k := range iv {
			lo, hi := max(k[0], reach), min(k[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += time.Duration(d)
	}
	return out
}

// write flushes the spans to path as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("trace: encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
