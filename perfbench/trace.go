package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer of the system, recorded by the
// traced run around the public function it calls. Parent is the ID of
// the enclosing span (0 for a root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced run in memory; write stores them
// when the run ends. The benchmark is single-threaded, so spans nest
// strictly and a stack gives every span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span, which must be id, and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// tag labels a closed span (e.g. with a run's serving decision).
func (t *tracer) tag(id int, tag string) { t.spans[id-1].Tag = tag }

// do runs fn inside a span and returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// selfTimes sums, per span name, the total time and the self time: a
// span's duration minus the part covered by its child spans.
func (t *tracer) selfTimes() []spanSummary {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.Total += s.dur()
		sum.Self += s.dur() - child[s.ID]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

type spanSummary struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// printSelfTimes writes the per-name self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "spans: %d recorded\n", len(t.spans))
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}

// write stores the host stamp and every span as JSON at path.
func (t *tracer) write(path string, stamp hostStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Host  hostStamp `json:"host"`
		Spans []span    `json:"spans"`
	}{stamp, t.spans})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// measure runs fn inside a span and returns its duration and the heap
// allocations it made; memory statistics are read outside the span.
func (t *tracer) measure(name string, fn func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	d := t.do(name, fn)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the q-quantile of v by linear interpolation between
// the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
