package main

import (
	"testing"
	"time"
)

func sp(name string, start, end, parent int) span {
	return span{Name: name, Start: time.Duration(start), End: time.Duration(end), Parent: parent}
}

func checkSelf(t *testing.T, spans []span, want map[string]time.Duration) {
	t.Helper()
	got := selfTimes(spans)
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if root := spans[0].End - spans[0].Start; sum != root {
		t.Errorf("self times sum to %v, root lasts %v", sum, root)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: self %v, want %v (all: %v)", name, got[name], d, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names %v, want %d", len(got), got, len(want))
	}
}

func TestSelfTimesNested(t *testing.T) {
	checkSelf(t, []span{
		sp("root", 0, 100, -1),
		sp("a", 20, 50, 0),
		sp("a.child", 30, 40, 1),
		sp("b", 50, 90, 0),
	}, map[string]time.Duration{"root": 30, "a": 20, "a.child": 10, "b": 40})
}

func TestSelfTimesOverlappingSiblings(t *testing.T) {
	// Two shards computing at once share their overlap [40, 60).
	checkSelf(t, []span{
		sp("submit", 0, 100, -1),
		sp("shard", 10, 60, 0),
		sp("shard2", 40, 80, 0),
	}, map[string]time.Duration{"submit": 30, "shard": 30 + 10, "shard2": 20 + 10})
}

func TestSelfTimesOverlapWithGrandchild(t *testing.T) {
	// While the grandchild runs, it and the overlapping sibling share.
	checkSelf(t, []span{
		sp("root", 0, 100, -1),
		sp("x", 0, 50, 0),
		sp("x.child", 20, 40, 1),
		sp("y", 30, 70, 0),
	}, map[string]time.Duration{"root": 30, "x": 20 + 5, "x.child": 10 + 5, "y": 5 + 5 + 20})
}

func TestSelfTimesSharedNamesAndEmptySpans(t *testing.T) {
	checkSelf(t, []span{
		sp("root", 0, 100, -1),
		sp("exec", 10, 20, 0),
		sp("exec", 30, 45, 0),
		sp("empty", 50, 50, 0),
		sp("exec", 60, 60, 0),
	}, map[string]time.Duration{"root": 75, "exec": 25})
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x")
	tr.add("n", 1)
	tr.place("y", time.Now(), time.Now())
	tr.end(id)
}

func TestTracerNestsAndClips(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	inner := tr.begin("inner")
	tr.place("placed", tr.t0.Add(-time.Second), time.Now())
	tr.end(inner)
	tr.end(root)
	if tr.spans[1].Parent != root || tr.spans[2].Parent != inner {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if tr.spans[2].Start < tr.spans[1].Start {
		t.Errorf("placed span starts %v before its parent %v", tr.spans[2].Start, tr.spans[1].Start)
	}
}
