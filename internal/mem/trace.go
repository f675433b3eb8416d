// Streaming consistency checking of the shared tiers under concurrent
// execution: the engine behind internal/consist. While a TraceRec is
// attached to a Space (SetTrace), every successful scalar load and store
// to the shared tiers — globals and heap; thread-private stack windows
// are skipped — is checked as it executes, and numbered with a global
// sequence number. The interleaving scheduler serializes all execution,
// so sequence numbers are assigned without synchronization and totally
// order every kept access across threads; the order is final the moment
// an access runs, so nothing needs replaying afterwards.
//
// The check is the one consist documents: a load of location (addr,
// width) must return the value of the most recent kept store to that
// location, once there is one. The recorder keeps one open-addressed
// table of each written location's most recent store, and a compact log
// of the (location, value) pairs stores wrote, 16 bytes per store. A
// store updates its location's slot and appends to the log; a load is
// compared against its slot and then forgotten, unless it mismatched, in
// which case it is kept as a TraceMismatch that remembers its position
// in the log. StoredBefore later tells a stale read (an earlier store
// put the value there) from a thin-air one with a single pass over the
// log, however many loads mismatched. A trial therefore retains the
// table plus 16 bytes per kept store, whatever its loads.
//
// Each thread's kept events are bounded: once a thread has kept limit
// events the recorder stops checking that thread's accesses and sets the
// truncated flag, so a runaway trial degrades to "trace incomplete"
// rather than unbounded memory. The mem/trace-drop failpoint silently
// discards events, simulating recorder data loss for torture drills (a
// dropped store typically surfaces downstream as a thin-air read
// verdict). Every kept event is also folded into a running 64-bit digest
// (Digest), so two runs can be compared event for event without storing
// either stream.
//
// A campaign checks one trace per trial, so a Pool also recycles
// recorders (GetTrace/PutTrace): a recycled recorder starts from
// NewTraceRec's state but keeps its table's and log's capacity, and its
// reset touches only the slots its last trial used.
package mem

import (
	"math/bits"

	"dpmr/internal/failpt"
)

// TraceOp distinguishes the two recorded access kinds.
type TraceOp uint8

const (
	TraceLoad TraceOp = iota + 1
	TraceStore
)

func (op TraceOp) String() string {
	if op == TraceLoad {
		return "load"
	}
	return "store"
}

// TraceDropSite drops trace events when armed (kind drop): the recorder
// pretends the access never happened, leaving a hole the consistency
// check may surface as a violation.
var TraceDropSite = failpt.Register("mem/trace-drop", failpt.KindDrop)

// TraceEvent is one shared-tier access, as Replay takes it and as a tap
// (SetTap) receives it.
type TraceEvent struct {
	Seq   uint64 // global total-order position
	Op    TraceOp
	Addr  uint64
	Width uint8
	Val   uint64 // value loaded / value stored, truncated to Width bytes
}

// TraceMismatch is one kept load that returned a value other than its
// location's most recent kept store.
type TraceMismatch struct {
	Thread   int
	Seq      uint64 // the load's sequence number
	Addr     uint64
	Width    uint8
	Got      uint64 // value the load returned
	Want     uint64 // most recent store's value
	WriteSeq uint64 // that store's sequence number
	stores   int    // kept stores before the load: its position in the log
}

// traceSlot is one slot of the location table: a written location's
// packed key and its most recent store. A location gets a slot only at
// its first kept store.
type traceSlot struct {
	key    uint64 // traceKey; 0 while the slot is free
	cur    uint64 // most recent store's value
	curSeq uint64 // that store's sequence number
}

// storedVal is one (location, value) pair a kept store wrote.
type storedVal struct {
	key uint64 // traceKey
	val uint64
}

// traceKey folds a location into the one word the table is keyed by.
// Widths are part of the key: the workloads' shared cells are accessed
// at one fixed width each, and folding mixed-width aliasing into
// byte-granular tracking would buy generality the IR's atomics (integer
// slots, exact-width access) never exercise. The fold is one-to-one for
// addresses below 2^60 and widths below 16, as every Space access's are,
// and never 0 for the nonzero widths accesses have, so 0 marks a free
// slot.
func traceKey(addr uint64, width uint8) uint64 { return addr<<4 | uint64(width) }

// A recorder's table starts at 1<<minSlotsLog slots.
const minSlotsLog = 6

// TraceRec checks one run's shared-tier accesses as they execute. It is
// not safe for concurrent use; the interleaving scheduler's
// one-runner-at-a-time discipline is what makes the unsynchronized
// global sequence sound. A recorder handed back to a Pool (PutTrace) is
// reused by a later run, so its owner must be done with it and with
// every slice Mismatches returned.
type TraceRec struct {
	kept      []int // per-thread kept events, against limit
	limit     int   // per-thread event cap
	thread    int
	n         uint64 // kept events; a live event's Seq
	truncated bool
	dropped   uint64
	digest    uint64

	slots    []traceSlot // power-of-two length, linear probing
	shift    uint        // 64 - log2(len(slots)), for multiplicative hashing
	occupied []int32     // indices of the occupied slots, for reset
	stores   []storedVal // every kept store, in total order
	mis      []TraceMismatch

	// first maps each stored (location, value) to its earliest position
	// in stores; StoredBefore builds it in one pass over the first
	// firstN stores.
	first  map[storedVal]int
	firstN int

	tap func(tid int, e TraceEvent)
}

// NewTraceRec sizes a recorder for the given thread count, bounding each
// thread's kept events at limit (<= 0 selects a default).
func NewTraceRec(threads, limit int) *TraceRec {
	t := &TraceRec{
		slots: make([]traceSlot, 1<<minSlotsLog),
		shift: 64 - minSlotsLog,
	}
	t.reset(threads, limit)
	return t
}

// reset returns t to the state NewTraceRec(threads, limit) gives, except
// that the table keeps its size, the log and mismatch list keep their
// capacity, and a tap stays set. It clears only the slots the last run
// occupied, so its cost follows that run, not the largest one t saw.
func (t *TraceRec) reset(threads, limit int) {
	if threads < 1 {
		threads = 1
	}
	if limit <= 0 {
		limit = 1 << 16
	}
	if cap(t.kept) < threads {
		t.kept = make([]int, threads)
	}
	t.kept = t.kept[:threads]
	clear(t.kept)
	for _, i := range t.occupied {
		t.slots[i] = traceSlot{}
	}
	t.occupied, t.stores, t.mis = t.occupied[:0], t.stores[:0], t.mis[:0]
	t.limit, t.thread, t.n, t.truncated, t.dropped, t.digest, t.firstN = limit, 0, 0, false, 0, 0, -1
}

// SetThread labels subsequent events with thread tid; the scheduler calls
// this at every draw, before the drawn thread runs on, even when the
// yielding thread drew itself. Out-of-range tids are clamped to 0.
func (t *TraceRec) SetThread(tid int) {
	if tid < 0 || tid >= len(t.kept) {
		tid = 0
	}
	t.thread = tid
}

// SetTap makes fn receive every event t keeps from now on, in total
// order, as it is checked; nil removes the tap. The tap observes the
// recorder rather than one run, so a reset keeps it: a recorder tapped
// before it goes back to a Pool is still tapped in the run that draws it
// next. No production path sets one.
func (t *TraceRec) SetTap(fn func(tid int, e TraceEvent)) { t.tap = fn }

// record checks one access of the current thread. Sequence numbers
// advance only for events actually kept, so a retained trace is dense;
// failpoint-dropped and truncated events are counted instead.
func (t *TraceRec) record(op TraceOp, addr uint64, width int, val uint64) {
	if act := failpt.Eval(TraceDropSite); act != nil {
		t.dropped++
		return
	}
	if t.kept[t.thread] >= t.limit {
		t.truncated = true
		return
	}
	t.kept[t.thread]++
	t.check(t.thread, TraceEvent{Seq: t.n, Op: op, Addr: addr, Width: uint8(width), Val: val})
}

// Replay checks e as thread tid's next event, with e.Seq as its sequence
// number, bypassing the failpoint and the per-thread cap: the entry for
// traces built outside a run (consist.CheckEvents). Events must arrive
// in ascending Seq order, with addresses below 2^60 and widths in 1..15.
func (t *TraceRec) Replay(tid int, e TraceEvent) { t.check(tid, e) }

// check is the engine: it folds e into the digest, then either records
// a store as its location's most recent one or compares a load against
// it.
func (t *TraceRec) check(tid int, e TraceEvent) {
	t.n++
	key := traceKey(e.Addr, e.Width)
	x := key*0x9E3779B97F4A7C15 ^ e.Val*0xC2B2AE3D27D4EB4F ^ (e.Seq<<16|uint64(tid)<<2|uint64(e.Op))*0x165667B19E3779F9
	t.digest = bits.RotateLeft64(t.digest^x, 27) * 0x94D049BB133111EB
	if t.tap != nil {
		t.tap(tid, e)
	}
	i := t.slot(key)
	s := &t.slots[i]
	switch {
	case e.Op == TraceStore:
		s.cur, s.curSeq = e.Val, e.Seq
		t.stores = append(t.stores, storedVal{key: key, val: e.Val})
		if s.key == 0 {
			s.key = key
			t.occupied = append(t.occupied, int32(i))
			if 2*len(t.occupied) > len(t.slots) {
				t.grow()
			}
		}
	// A load before its location's first kept store (a free slot) is
	// unconstrained: it reads the untraced initial image.
	case s.key != 0 && e.Val != s.cur:
		t.mis = append(t.mis, TraceMismatch{
			Thread: tid, Seq: e.Seq, Addr: e.Addr, Width: e.Width,
			Got: e.Val, Want: s.cur, WriteSeq: s.curSeq, stores: len(t.stores),
		})
	}
}

// slot returns the index of key's slot, or of the free slot where key
// would go.
func (t *TraceRec) slot(key uint64) int {
	mask := len(t.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table and reinserts every occupied slot.
func (t *TraceRec) grow() {
	old := t.slots
	t.slots = make([]traceSlot, 2*len(old))
	t.shift--
	for k, i := range t.occupied {
		j := t.slot(old[i].key)
		t.slots[j] = old[i]
		t.occupied[k] = int32(j)
	}
}

// StoredBefore reports whether a store kept before m's load put the
// value the load returned at its location: a stale read rather than a
// thin-air one. The lookup behind it is built on the first call after
// the log last grew, by one pass over every kept store, so classifying
// costs O(stores) however many loads mismatched.
func (t *TraceRec) StoredBefore(m TraceMismatch) bool {
	if t.firstN != len(t.stores) {
		if t.first == nil {
			t.first = make(map[storedVal]int)
		}
		clear(t.first)
		for i, sv := range t.stores {
			if _, ok := t.first[sv]; !ok {
				t.first[sv] = i
			}
		}
		t.firstN = len(t.stores)
	}
	i, ok := t.first[storedVal{key: traceKey(m.Addr, m.Width), val: m.Got}]
	return ok && i < m.stores
}

// Mismatches returns the kept loads that contradicted their location's
// most recent kept store, in total order. The slice aliases the
// recorder's; callers must not mutate it.
func (t *TraceRec) Mismatches() []TraceMismatch { return t.mis }

// Threads returns the number of threads the recorder was sized for.
func (t *TraceRec) Threads() int { return len(t.kept) }

// Len returns the total number of kept events.
func (t *TraceRec) Len() uint64 { return t.n }

// Digest folds every kept event — its thread, sequence number, kind,
// address, width and value, in order — into one word: equal streams give
// equal digests, a difference in one field of one event always changes
// it, and larger differences collide only by a 64-bit accident.
func (t *TraceRec) Digest() uint64 { return t.digest }

// Truncated reports whether any thread exceeded its kept-event bound.
func (t *TraceRec) Truncated() bool { return t.truncated }

// Dropped returns the number of events discarded by the mem/trace-drop
// failpoint.
func (t *TraceRec) Dropped() uint64 { return t.dropped }
