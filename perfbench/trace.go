package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// disabled tracer: Begin returns 0 and End does nothing, so untraced
// runs pay one nil check per call site.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(name string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(name, b, 0o644)
}

// selfTimes maps each span ID to its self time: its duration minus
// the part of its interval its children cover. Overlapping children
// (parallel calls under one parent) are counted once.
func selfTimes(spans []Span) map[int32]time.Duration {
	kids := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// unaccounted is the share of root's duration that no descendant span
// covers: the part of a timed phase the per-layer self times do not
// explain.
func (t *Tracer) unaccounted(root int32) float64 {
	spans := t.Spans()
	for _, s := range spans {
		if s.ID == root {
			return float64(selfTimes(spans)[root]) / float64(s.End-s.Start)
		}
	}
	return math.NaN()
}

// unaccountedChildren is, over the direct children of root, the share
// of their summed duration that their own descendants do not cover:
// for a phase whose children each wrap one whole request, how much of
// the requests the layer spans inside them leave unexplained.
func (t *Tracer) unaccountedChildren(root int32) float64 {
	spans := t.Spans()
	self := selfTimes(spans)
	var unexplained, total time.Duration
	for _, s := range spans {
		if s.Parent == root {
			unexplained += self[s.ID]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(unexplained) / float64(total)
}
