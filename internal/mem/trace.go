// Per-thread access traces for concurrent execution: the raw material of
// the offline consistency checker (internal/consist). While a TraceRec is
// attached to a Space (SetTrace), every successful scalar load and store
// to the shared tiers — globals and heap; thread-private stack windows
// are skipped — is appended to the current thread's buffer together with
// a global sequence number. The interleaving scheduler serializes all
// execution, so sequence numbers are assigned without synchronization and
// totally order every recorded access across threads; within one thread
// the buffer order is exactly program order.
//
// Buffers are bounded: once a thread's buffer is full the recorder stops
// recording for that thread and sets the truncated flag, so a runaway
// trial degrades to "trace incomplete" rather than unbounded memory. The
// mem/trace-drop failpoint silently discards events, simulating recorder
// data loss for torture drills (a dropped store typically surfaces
// downstream as a thin-air read verdict).
//
// A campaign records one trace per trial, so a Pool also recycles
// recorders (GetTrace/PutTrace): a recycled recorder starts from
// NewTraceRec's state but keeps its buffers' capacity, so a warm trial
// appends without growing them.
package mem

import "dpmr/internal/failpt"

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
// checker may surface as a violation.
var TraceDropSite = failpt.Register("mem/trace-drop", failpt.KindDrop)

// TraceEvent is one recorded shared-tier access.
type TraceEvent struct {
	Seq   uint64 // global total-order position (dense across threads)
	Op    TraceOp
	Addr  uint64
	Width uint8
	Val   uint64 // value loaded / value stored, truncated to Width bytes
}

// TraceRec records per-thread, bounded access traces. It is not safe for
// concurrent use; the interleaving scheduler's one-runner-at-a-time
// discipline is what makes the unsynchronized global sequence sound. A
// recorder handed back to a Pool (PutTrace) is reused by a later run, so
// its owner must be done with it and with every slice Thread returned.
type TraceRec struct {
	threads   [][]TraceEvent
	limit     int // per-thread event cap
	seq       uint64
	thread    int
	truncated bool
	dropped   uint64
}

// NewTraceRec sizes a recorder for the given thread count, bounding each
// thread's buffer at limit events (<= 0 selects a default).
func NewTraceRec(threads, limit int) *TraceRec {
	t := &TraceRec{}
	t.reset(threads, limit)
	return t
}

// reset returns t to the state NewTraceRec(threads, limit) gives, except
// that every buffer t already holds is cut to length 0 and keeps its
// capacity, including those beyond the new thread count. Every buffer
// starts empty but non-nil (make of length 0 does not allocate), so a
// thread that records nothing reads the same from a fresh recorder as
// from a recycled one.
func (t *TraceRec) reset(threads, limit int) {
	if threads < 1 {
		threads = 1
	}
	if limit <= 0 {
		limit = 1 << 16
	}
	if n := cap(t.threads); n < threads {
		t.threads = append(t.threads[:n], make([][]TraceEvent, threads-n)...)
	}
	t.threads = t.threads[:threads]
	for i, buf := range t.threads {
		if buf == nil {
			buf = make([]TraceEvent, 0)
		}
		t.threads[i] = buf[:0]
	}
	t.limit, t.seq, t.thread, t.truncated, t.dropped = limit, 0, 0, false, 0
}

// SetThread labels subsequent events with thread tid; the scheduler calls
// this at every draw, before the drawn thread runs on, even when the
// yielding thread drew itself. Out-of-range tids are clamped to 0.
func (t *TraceRec) SetThread(tid int) {
	if tid < 0 || tid >= len(t.threads) {
		tid = 0
	}
	t.thread = tid
}

// record appends one event to the current thread's buffer. Sequence
// numbers advance only for events actually kept, so a retained trace is
// dense; failpoint-dropped and truncated events are counted instead.
func (t *TraceRec) record(op TraceOp, addr uint64, width int, val uint64) {
	if act := failpt.Eval(TraceDropSite); act != nil {
		t.dropped++
		return
	}
	buf := t.threads[t.thread]
	if len(buf) >= t.limit {
		t.truncated = true
		return
	}
	t.threads[t.thread] = append(buf, TraceEvent{
		Seq: t.seq, Op: op, Addr: addr, Width: uint8(width), Val: val,
	})
	t.seq++
}

// Threads returns the number of per-thread buffers.
func (t *TraceRec) Threads() int { return len(t.threads) }

// Thread returns thread tid's events in program order. The slice aliases
// the recorder's buffer; callers must not mutate it.
func (t *TraceRec) Thread(tid int) []TraceEvent { return t.threads[tid] }

// Len returns the total number of retained events.
func (t *TraceRec) Len() uint64 { return t.seq }

// Truncated reports whether any thread's buffer overflowed its bound.
func (t *TraceRec) Truncated() bool { return t.truncated }

// Dropped returns the number of events discarded by the mem/trace-drop
// failpoint.
func (t *TraceRec) Dropped() uint64 { return t.dropped }
