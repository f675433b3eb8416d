// Package consist is the consistency oracle over shared-memory accesses
// under the interleaving scheduler: the new detection axis concurrent
// trials add on top of the DPMR outcome taxonomy.
//
// The interleaving scheduler serializes all execution, so every
// shared-tier access is totally ordered the moment it runs, and the
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
// The check itself streams: mem.TraceRec compares every load against its
// location's most recent store as the scheduler runs it, keeping only a
// location table and a 16-byte log entry per store, and no load. Check
// reads the recorder's verdict and names each mismatching load's class.
// CheckEvents feeds per-thread traces built elsewhere (tests, fuzzing)
// through the same engine, merged into Seq order, so there is one
// checker, not a live one and an offline one.
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
	Truncated  bool   // a thread exceeded its kept-event bound
	Dropped    uint64 // events discarded by the mem/trace-drop failpoint
}

// Clean reports whether the trace verified without violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Check reports a recorder's verdict: the accesses it checked, its
// metadata, and each mismatching load as a classified violation. Nil
// recorders verify clean (tracing disabled records nothing to
// contradict).
func Check(t *mem.TraceRec) *Report {
	if t == nil {
		return &Report{}
	}
	r := &Report{Events: t.Len(), Truncated: t.Truncated(), Dropped: t.Dropped()}
	if ms := t.Mismatches(); len(ms) > 0 {
		r.Violations = make([]Violation, len(ms))
		for i, m := range ms {
			class := ClassThinAir
			if t.StoredBefore(m) {
				class = ClassStaleRead
			}
			r.Violations[i] = Violation{
				Class: class, Thread: m.Thread, Seq: m.Seq, Addr: m.Addr, Width: m.Width,
				Got: m.Got, Want: m.Want, WriteSeq: m.WriteSeq,
			}
		}
	}
	return r
}

// replays holds idle recorders for CheckEvents, so that their tables
// outlive one check. Recorders do not depend on a pool's Config.
var replays = mem.NewPool(mem.Config{})

// CheckEvents verifies per-thread traces by replaying them, merged into
// Seq order, through the engine live runs use. Precondition: each
// thread's events are in program order with strictly ascending Seq, no
// two threads share a Seq, and every event's width is in 1..15 and its
// address below 2^60, as every mem.Space access's is. The threads are
// merged on the fly, without copying or sorting: a group has only a few
// threads, so picking the thread with the smallest next Seq is a short
// scan, and that thread's events then replay as one run up to the
// next-smallest head among the others.
func CheckEvents(threads [][]mem.TraceEvent) *Report {
	t := replays.GetTrace(len(threads), 0)
	defer replays.PutTrace(t)
	replay(t, threads)
	return Check(t)
}

// replay feeds threads to t in Seq order.
func replay(t *mem.TraceRec, threads [][]mem.TraceEvent) {
	var cursors [8]int // per-thread replay positions
	pos := cursors[:]
	if len(threads) > len(cursors) {
		pos = make([]int, len(threads))
	}
	for {
		tid, head, bound := -1, uint64(0), uint64(math.MaxUint64)
		for i, evs := range threads {
			if pos[i] == len(evs) {
				continue
			}
			switch s := evs[pos[i]].Seq; {
			case tid < 0:
				tid, head = i, s
			case s < head:
				tid, head, bound = i, s, head
			case s < bound:
				bound = s
			}
		}
		if tid < 0 {
			return
		}
		evs, i := threads[tid], pos[tid]
		t.Replay(tid, evs[i])
		for i++; i < len(evs) && evs[i].Seq < bound; i++ {
			t.Replay(tid, evs[i])
		}
		pos[tid] = i
	}
}
