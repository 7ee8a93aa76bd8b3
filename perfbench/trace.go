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

// A span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is the index of the enclosing span (-1 for a root); spans of
// one query or request share an ID.
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the run ends. A
// nil *tracer records nothing, so untraced passes run the same code with
// no bookkeeping beyond a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as the
// queue wait and solve time a server reports inside a request.
func (t *tracer) add(name string, parent int, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, so that times can
// summarise only the spans of one pass.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is the total and self duration of one span name's calls. Self
// time is a span's duration minus the part of its interval that its
// children cover.
type layerTime struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

// times sums layerTime per span name over the spans recorded since mark.
func (t *tracer) times(from int) map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.Total += dur
		lt.Self += dur - covered(t.spans, children[i], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [lo, hi] the given spans cover, counting
// overlaps once.
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
