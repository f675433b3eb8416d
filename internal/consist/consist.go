// Package consist is the offline consistency checker over the per-thread
// shared-memory traces recorded by mem.TraceRec: the new detection axis
// concurrent trials add on top of the DPMR outcome taxonomy.
//
// The interleaving scheduler serializes all execution, so the recorder's
// global sequence numbers totally order every shared-tier access, and the
// correctness condition is sharp: a read of location (addr, width) must
// return the value of the most recent write to that location in the total
// order. That is strictly stronger than PRAM/causal consistency — any
// PRAM violation over these traces is also a violation here — which is
// exactly what makes it a useful oracle: a fault injection that corrupts
// shared memory between a write and a dependent read surfaces as a named
// violation even when the program then exits normally (a silent failure
// under the paper's §3.6 taxonomy).
//
// Two violation classes are distinguished. A stale read returns a value
// some older write put at the location (the signature of lost updates and
// reordering); a thin-air read returns a value no traced write ever put
// there (the signature of wild corruption, replica divergence, or trace
// loss). A location's reads are unconstrained until its first traced
// write — initial images (zeroed memory, global init bytes) are written
// outside the traced window, so constraining first reads would flag
// correct programs.
//
// The checker is two-valued by construction: a trace either verifies
// clean (no violations) or yields a non-empty violation list. Truncation
// and failpoint drops are surfaced as report metadata, never as a third
// verdict.
package consist

import (
	"fmt"
	"math"

	"dpmr/internal/mem"
)

// Violation classes.
const (
	ClassStaleRead = "stale-read"
	ClassThinAir   = "thin-air"
)

// Violation is one read that contradicts the traced write history.
type Violation struct {
	Class    string `json:"class"`
	Thread   int    `json:"thread"`
	Seq      uint64 `json:"seq"` // the read's global sequence number
	Addr     uint64 `json:"addr"`
	Width    uint8  `json:"width"`
	Got      uint64 `json:"got"`      // value the read returned
	Want     uint64 `json:"want"`     // most recent write's value
	WriteSeq uint64 `json:"writeSeq"` // that write's sequence number
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: thread %d read [%#x]/%d = %#x at seq %d, want %#x (write seq %d)",
		v.Class, v.Thread, v.Addr, v.Width, v.Got, v.Seq, v.Want, v.WriteSeq)
}

// Report is one trace's checking outcome.
type Report struct {
	Violations []Violation
	Events     uint64 // accesses checked
	Truncated  bool   // a thread's trace buffer overflowed
	Dropped    uint64 // events discarded by the mem/trace-drop failpoint
}

// Clean reports whether the trace verified without violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Check verifies a recorder's trace. Nil recorders verify clean (tracing
// disabled records nothing to contradict).
func Check(t *mem.TraceRec) *Report {
	if t == nil {
		return &Report{}
	}
	threads := make([][]mem.TraceEvent, t.Threads())
	for i := range threads {
		threads[i] = t.Thread(i)
	}
	r := CheckEvents(threads)
	r.Truncated = t.Truncated()
	r.Dropped = t.Dropped()
	return r
}

// locKey identifies one checked location. Widths are part of the key:
// the workloads' shared cells are accessed at one fixed width each, and
// folding mixed-width aliasing into byte-granular tracking would buy
// generality the IR's atomics (integer slots, exact-width access) never
// exercise.
type locKey struct {
	addr  uint64
	width uint8
}

// locState is a location's traced write history. A location gets a state
// only at its first traced write.
type locState struct {
	cur    uint64              // most recent write's value
	curSeq uint64              // that write's sequence number
	older  map[uint64]struct{} // values of superseded writes, made on first need
}

// checker is the replay state: every written location's state, in one
// slice indexed through index.
type checker struct {
	r     *Report
	index map[locKey]int32
	locs  []locState
}

// step replays one event of thread tid in total order.
func (c *checker) step(tid int, e *mem.TraceEvent) {
	c.r.Events++
	k := locKey{addr: e.Addr, width: e.Width}
	i, ok := c.index[k]
	switch {
	case e.Op == mem.TraceStore && !ok:
		c.index[k] = int32(len(c.locs))
		c.locs = append(c.locs, locState{cur: e.Val, curSeq: e.Seq})
	case e.Op == mem.TraceStore:
		st := &c.locs[i]
		if st.cur != e.Val {
			if st.older == nil {
				st.older = make(map[uint64]struct{})
			}
			st.older[st.cur] = struct{}{}
		}
		st.cur, st.curSeq = e.Val, e.Seq
	// A load before its location's first traced write (!ok) is
	// unconstrained: it reads the untraced initial image.
	case e.Op == mem.TraceLoad && ok && e.Val != c.locs[i].cur:
		st := &c.locs[i]
		class := ClassThinAir
		if _, stale := st.older[e.Val]; stale {
			class = ClassStaleRead
		}
		c.r.Violations = append(c.r.Violations, Violation{
			Class: class, Thread: tid, Seq: e.Seq,
			Addr: e.Addr, Width: e.Width,
			Got: e.Val, Want: st.cur, WriteSeq: st.curSeq,
		})
	}
}

// CheckEvents verifies per-thread traces (the test surface; Check wraps
// it for recorder output). Precondition: each thread's events are in
// program order with strictly ascending Seq, as mem.TraceRec records
// them. The threads are merged into the global total order by Seq on the
// fly, without copying or sorting: a group has only a few threads, so
// picking the thread with the smallest next Seq is a short scan, and
// that thread's events then replay as one run up to the next-smallest
// head among the others.
func CheckEvents(threads [][]mem.TraceEvent) *Report {
	c := &checker{r: &Report{}, index: make(map[locKey]int32)}
	pos := make([]int, len(threads))
	for {
		t, head, bound := -1, uint64(0), uint64(math.MaxUint64)
		for i, evs := range threads {
			if pos[i] == len(evs) {
				continue
			}
			switch s := evs[pos[i]].Seq; {
			case t < 0:
				t, head = i, s
			case s < head:
				t, head, bound = i, s, head
			case s < bound:
				bound = s
			}
		}
		if t < 0 {
			return c.r
		}
		evs, i := threads[t], pos[t]
		c.step(t, &evs[i])
		for i++; i < len(evs) && evs[i].Seq < bound; i++ {
			c.step(t, &evs[i])
		}
		pos[t] = i
	}
}
