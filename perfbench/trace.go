package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share Req; a root span's Req is its own ID and its Parent is 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (nil for a new request).
func (t *tracer) begin(name, attr string, parent *span) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.ids.Add(1), Name: name, Attr: attr}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = s.ID
	}
	s.Start = int64(time.Since(t.t0))
	return s
}

// end closes the span and stores it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add stores a span whose bounds the caller measured itself (a request
// timed from its scheduled send, for example) and returns it, so it can
// parent further spans.
func (t *tracer) add(name, attr string, parent *span, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := t.begin(name, attr, parent)
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of the spans named name (and attr, when
// attr is not empty) in the given unit.
func durations(spans []span, name, attr string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes checks that spans nest — every child lies inside its parent —
// and returns each span's self time: its duration minus the part of it
// its children cover.
func selfTimes(spans []span) (map[int64]time.Duration, error) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Req != p.Req {
			return nil, fmt.Errorf("span %d (%s) has request %d, its parent %d", s.ID, s.Name, s.Req, p.Req)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo := max(k.Start, reach)
			if k.End > lo {
				covered += k.End - lo
				reach = k.End
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
		if self[s.ID] < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
	}
	return self, nil
}

// writeFile writes the spans as JSON lines, in start order.
func (t *tracer) writeFile(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
