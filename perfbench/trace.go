package main

// Tracing from outside the program: spans are recorded only by this
// benchmark, around its calls into each layer's public entry points.
// Spans stay in memory and are written out when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call: name is the per-layer metric it feeds, parent
// the index of the enclosing span (-1 for the root), spec the index of
// the Spec in the stream (-1 outside any Spec).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Parent int           `json:"parent"`
	Spec   int           `json:"spec"`
}

// tracer records spans and counters. A nil *tracer records nothing, so
// the untraced run shares code paths with the traced one at no cost.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	spec   int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spec: -1, counts: make(map[string]float64)}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: t.top(), Spec: t.spec})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// place records an already finished span [start, end) as a child of the
// innermost open span, clipped to the part after the parent started.
func (t *tracer) place(name string, start, end time.Time) {
	if t == nil {
		return
	}
	s, e := start.Sub(t.t0), end.Sub(t.t0)
	p := t.top()
	if p >= 0 && s < t.spans[p].Start {
		s = t.spans[p].Start
	}
	if e < s {
		e = s
	}
	t.spans = append(t.spans, span{Name: name, Start: s, End: e, Parent: p, Spec: t.spec})
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// add bumps a counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes attributes every instant covered by a span to the innermost
// spans open at that instant — those with no open child — and returns
// the total per span name. A span's self time is therefore its duration
// minus the part its children cover; siblings that overlap (shards
// computing on two workers at once) share the overlapped time equally,
// so the self times of a tree add up to its root's duration. Every span
// must lie within its parent; empty spans are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	type edge struct {
		at    time.Duration
		open  bool
		index int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start { // an empty span owns no time
			edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
		}
	}
	// At one instant, close before opening, and open parents before
	// their children (parents have lower indices).
	sort.SliceStable(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.open != eb.open {
			return !ea.open
		}
		if ea.open {
			return ea.index < eb.index
		}
		return ea.index > eb.index
	})
	out := make(map[string]time.Duration)
	openChildren := make([]int, len(spans))
	active := make([]bool, len(spans))
	leaves := make(map[int]bool)
	var last time.Duration
	for _, e := range edges {
		if dt := e.at - last; dt > 0 && len(leaves) > 0 {
			share := dt / time.Duration(len(leaves))
			rem := dt - share*time.Duration(len(leaves))
			for _, i := range sortedKeys(leaves) {
				out[spans[i].Name] += share + rem
				rem = 0
			}
		}
		last = e.at
		i, p := e.index, spans[e.index].Parent
		if e.open {
			active[i] = true
			leaves[i] = true
			if p >= 0 {
				openChildren[p]++
				delete(leaves, p)
			}
			continue
		}
		active[i] = false
		delete(leaves, i)
		if p >= 0 {
			openChildren[p]--
			if openChildren[p] == 0 && active[p] {
				leaves[p] = true
			}
		}
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
