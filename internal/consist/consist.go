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
//
// Replay keeps only each written location's most recent write, in one
// open-addressed table that checks reuse, so a clean check allocates
// nothing but its Report. A violation's class is read back from the
// trace itself: a read that differs from its location's most recent
// write is stale exactly when an earlier store put the value it read
// there, so no history of superseded values is kept.
package consist

import (
	"fmt"
	"math"
	"sync"

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
	c := checkers.Get().(*checker)
	bufs := c.bufs[:0]
	for i := 0; i < t.Threads(); i++ {
		bufs = append(bufs, t.Thread(i))
	}
	r := c.check(bufs)
	clear(bufs) // the pooled checker must not pin the trace
	c.bufs = bufs
	checkers.Put(c)
	r.Truncated = t.Truncated()
	r.Dropped = t.Dropped()
	return r
}

// CheckEvents verifies per-thread traces (the test surface; Check wraps
// it for recorder output). Precondition: each thread's events are in
// program order with strictly ascending Seq, as mem.TraceRec records
// them, and every event's width is below 16 and its address below 2^60,
// as every mem.Space access's is.
func CheckEvents(threads [][]mem.TraceEvent) *Report {
	c := checkers.Get().(*checker)
	r := c.check(threads)
	checkers.Put(c)
	return r
}

// checkers holds idle checkers, so that their tables outlive one check.
var checkers = sync.Pool{New: func() any { return new(checker) }}

// locKey identifies one checked location. Widths are part of the key:
// the workloads' shared cells are accessed at one fixed width each, and
// folding mixed-width aliasing into byte-granular tracking would buy
// generality the IR's atomics (integer slots, exact-width access) never
// exercise.
type locKey struct {
	addr  uint64
	width uint8
}

// packed folds k into the one word the table is keyed by. The fold is
// one-to-one under CheckEvents' precondition, and never 0 for the
// nonzero widths a recorder writes, so 0 marks a free slot.
func (k locKey) packed() uint64 { return k.addr<<4 | uint64(k.width) }

// locState is one slot of the checker's location table: a written
// location's packed key and its most recent write. A location gets a
// slot only at its first traced write.
type locState struct {
	key    uint64 // locKey.packed; 0 while the slot is free
	cur    uint64 // most recent write's value
	curSeq uint64 // that write's sequence number
}

// storeVal is one (location, value) pair some traced store wrote.
type storeVal struct {
	key uint64 // locKey.packed
	val uint64
}

// A checker's table starts at 1<<minSlotsLog slots.
const minSlotsLog = 6

// checker is the replay state of one check, kept for the next one.
type checker struct {
	slots []locState // power-of-two length, linear probing
	used  int        // occupied slots; the table doubles past half load
	shift uint       // 64 - log2(len(slots)), for multiplicative hashing
	pos   []int      // per-thread replay cursors
	// first maps each stored (location, value) to its earliest store's
	// Seq. One pass fills it on a check's first violation (firstOK).
	first   map[storeVal]uint64
	firstOK bool
	bufs    [][]mem.TraceEvent // Check's list of the recorder's buffers
}

// slot returns the index of key's slot, or of the free slot where key
// would go.
func (c *checker) slot(key uint64) int {
	mask := len(c.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> c.shift)
	for c.slots[i].key != key && c.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table and reinserts every occupied slot.
func (c *checker) grow() {
	old := c.slots
	c.slots = make([]locState, 2*len(old))
	c.shift--
	for _, s := range old {
		if s.key != 0 {
			c.slots[c.slot(s.key)] = s
		}
	}
}

// step replays one event of thread tid in total order.
func (c *checker) step(r *Report, threads [][]mem.TraceEvent, tid int, e *mem.TraceEvent) {
	key := locKey{addr: e.Addr, width: e.Width}.packed()
	s := &c.slots[c.slot(key)]
	switch {
	case e.Op == mem.TraceStore:
		s.cur, s.curSeq = e.Val, e.Seq
		if s.key == 0 {
			s.key = key
			if c.used++; 2*c.used > len(c.slots) {
				c.grow()
			}
		}
	// A load before its location's first traced write (a free slot) is
	// unconstrained: it reads the untraced initial image.
	case s.key != 0 && e.Val != s.cur:
		r.Violations = append(r.Violations, Violation{
			Class: c.class(threads, key, e), Thread: tid, Seq: e.Seq,
			Addr: e.Addr, Width: e.Width,
			Got: e.Val, Want: s.cur, WriteSeq: s.curSeq,
		})
	}
}

// class names the violation of load e from location key: a stale read
// when a store earlier in the total order put e.Val there, thin-air when
// none did. The lookup behind it is built on the check's first
// violation, by one pass over every store, so classifying costs O(events)
// however many loads violate.
func (c *checker) class(threads [][]mem.TraceEvent, key uint64, e *mem.TraceEvent) string {
	if !c.firstOK {
		c.firstOK = true
		if c.first == nil {
			c.first = make(map[storeVal]uint64)
		}
		clear(c.first)
		for _, evs := range threads {
			for i := range evs {
				st := &evs[i]
				if st.Op != mem.TraceStore {
					continue
				}
				sv := storeVal{key: locKey{addr: st.Addr, width: st.Width}.packed(), val: st.Val}
				if seq, ok := c.first[sv]; !ok || st.Seq < seq {
					c.first[sv] = st.Seq
				}
			}
		}
	}
	if seq, ok := c.first[storeVal{key: key, val: e.Val}]; ok && seq < e.Seq {
		return ClassStaleRead
	}
	return ClassThinAir
}

// check replays threads in the global total order. The threads are
// merged by Seq on the fly, without copying or sorting: a group has only
// a few threads, so picking the thread with the smallest next Seq is a
// short scan, and that thread's events then replay as one run up to the
// next-smallest head among the others.
func (c *checker) check(threads [][]mem.TraceEvent) *Report {
	r := &Report{}
	if c.slots == nil {
		c.slots = make([]locState, 1<<minSlotsLog)
		c.shift = 64 - minSlotsLog
	} else if c.used > 0 {
		clear(c.slots)
	}
	c.used, c.firstOK = 0, false
	c.pos = append(c.pos[:0], make([]int, len(threads))...)
	pos := c.pos
	for _, evs := range threads {
		r.Events += uint64(len(evs))
	}
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
			return r
		}
		evs, i := threads[t], pos[t]
		c.step(r, threads, t, &evs[i])
		for i++; i < len(evs) && evs[i].Seq < bound; i++ {
			c.step(r, threads, t, &evs[i])
		}
		pos[t] = i
	}
}
