package consist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dpmr/internal/interp"
	"dpmr/internal/mem"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

func ld(seq, addr uint64, w uint8, val uint64) mem.TraceEvent {
	return mem.TraceEvent{Seq: seq, Op: mem.TraceLoad, Addr: addr, Width: w, Val: val}
}

func st(seq, addr uint64, w uint8, val uint64) mem.TraceEvent {
	return mem.TraceEvent{Seq: seq, Op: mem.TraceStore, Addr: addr, Width: w, Val: val}
}

func TestCleanTrace(t *testing.T) {
	// Two threads, interleaved writes and reads, every read sees the most
	// recent write in seq order.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x100, 8, 1), ld(2, 0x100, 8, 2), st(4, 0x108, 8, 7)},
		{st(1, 0x100, 8, 2), ld(3, 0x100, 8, 2), ld(5, 0x108, 8, 7)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
	if r.Events != 6 {
		t.Fatalf("want 6 events checked, got %d", r.Events)
	}
}

func TestStaleRead(t *testing.T) {
	// The read at seq 3 returns the superseded value 1: a lost update.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x200, 8, 1), st(1, 0x200, 8, 2)},
		{ld(3, 0x200, 8, 1)},
	})
	if r.Clean() {
		t.Fatal("expected a violation")
	}
	v := r.Violations[0]
	if v.Class != ClassStaleRead {
		t.Fatalf("want %s, got %s", ClassStaleRead, v.Class)
	}
	if v.Thread != 1 || v.Got != 1 || v.Want != 2 || v.WriteSeq != 1 {
		t.Fatalf("bad violation detail: %+v", v)
	}
}

func TestThinAirRead(t *testing.T) {
	// The read returns 0xdead, which no traced write ever stored.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x300, 4, 5), ld(1, 0x300, 4, 0xdead)},
	})
	if r.Clean() {
		t.Fatal("expected a violation")
	}
	if got := r.Violations[0].Class; got != ClassThinAir {
		t.Fatalf("want %s, got %s", ClassThinAir, got)
	}
}

func TestFirstReadUnconstrained(t *testing.T) {
	// Reads before the first traced write see the untraced initial image
	// and must not be flagged; once a write lands, reads are constrained.
	r := CheckEvents([][]mem.TraceEvent{
		{ld(0, 0x400, 8, 0xabc), st(1, 0x400, 8, 9), ld(2, 0x400, 8, 0xabc)},
	})
	if len(r.Violations) != 1 {
		t.Fatalf("want exactly the post-write read flagged, got %v", r.Violations)
	}
	if r.Violations[0].Seq != 2 {
		t.Fatalf("wrong read flagged: %+v", r.Violations[0])
	}
}

func TestWidthsAreDistinctLocations(t *testing.T) {
	// A 4-byte read of a cell only ever written at 8 bytes is a different
	// location key: unconstrained, not a violation.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x500, 8, 0x1122334455667788), ld(1, 0x500, 4, 0x55667788)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
}

func TestRepeatedValueNotStale(t *testing.T) {
	// Writing the same value twice must not register it as "older": a
	// read returning it still matches the current write.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x600, 8, 3), st(1, 0x600, 8, 3), ld(2, 0x600, 8, 3)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
}

// TestTwoValued: every checked trace is either clean or carries at least
// one named violation — metadata (truncation, drops) never manufactures
// a third verdict.
func TestTwoValued(t *testing.T) {
	s := mem.NewSpace(mem.Config{})
	tr := mem.NewTraceRec(1, 2)
	s.SetTrace(tr)
	addr, trap := s.Malloc(8)
	if trap != nil {
		t.Fatal(trap)
	}
	for i := 0; i < 5; i++ {
		// Overflow the 2-event buffer: the trace truncates.
		if trap := s.Store(addr, 8, uint64(i)); trap != nil {
			t.Fatal(trap)
		}
	}
	r := Check(tr)
	if !r.Truncated {
		t.Fatal("expected truncation metadata")
	}
	if !r.Clean() {
		t.Fatalf("truncation must not be a violation: %v", r.Violations)
	}
}

func TestNilRecorderClean(t *testing.T) {
	if r := Check(nil); !r.Clean() || r.Events != 0 {
		t.Fatalf("nil recorder must verify clean, got %+v", r)
	}
}

// refEvent carries an event's thread through the total-order merge.
type refEvent struct {
	mem.TraceEvent
	thread int
}

// refKey identifies a location in the reference: widths are part of the
// key, as in the engine.
type refKey struct {
	addr  uint64
	width uint8
}

// refLocState is a location's traced write history.
type refLocState struct {
	cur     uint64 // most recent write's value
	curSeq  uint64
	written bool
	older   map[uint64]struct{} // values of superseded writes
}

// referenceCheck is the original sort-based checker, kept as the oracle
// CheckEvents is cross-checked against: concatenate every thread's
// events, sort by Seq, replay.
func referenceCheck(threads [][]mem.TraceEvent) *Report {
	r := &Report{}
	var all []refEvent
	for tid, evs := range threads {
		for _, e := range evs {
			all = append(all, refEvent{TraceEvent: e, thread: tid})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	locs := make(map[refKey]*refLocState)
	for _, e := range all {
		r.Events++
		k := refKey{addr: e.Addr, width: e.Width}
		st := locs[k]
		switch e.Op {
		case mem.TraceStore:
			if st == nil {
				st = &refLocState{}
				locs[k] = st
			}
			if st.written && st.cur != e.Val {
				if st.older == nil {
					st.older = make(map[uint64]struct{})
				}
				st.older[st.cur] = struct{}{}
			}
			st.cur, st.curSeq, st.written = e.Val, e.Seq, true
		case mem.TraceLoad:
			if st == nil || !st.written {
				continue // unconstrained before the first traced write
			}
			if e.Val == st.cur {
				continue
			}
			class := ClassThinAir
			if _, ok := st.older[e.Val]; ok {
				class = ClassStaleRead
			}
			r.Violations = append(r.Violations, Violation{
				Class: class, Thread: e.thread, Seq: e.Seq,
				Addr: e.Addr, Width: e.Width,
				Got: e.Val, Want: st.cur, WriteSeq: st.curSeq,
			})
		}
	}
	return r
}

// decodeTrace turns arbitrary bytes into a trace that meets CheckEvents'
// precondition. data[0] picks 1-4 threads; then every two bytes are one
// event: the first byte packs thread, op, width, one of four addresses
// and a Seq gap of 1-2, the second is the value. Seqs ascend globally,
// so each thread's are strictly ascending and no two threads share one.
// Few addresses and values make stale and thin-air reads common.
func decodeTrace(data []byte) [][]mem.TraceEvent {
	if len(data) == 0 {
		return nil
	}
	threads := make([][]mem.TraceEvent, 1+int(data[0]&3))
	seq := uint64(data[0] >> 2)
	for b := data[1:]; len(b) >= 2; b = b[2:] {
		ctl := b[0]
		e := mem.TraceEvent{
			Seq:   seq,
			Op:    mem.TraceLoad,
			Addr:  0x1000 + 8*uint64(ctl>>3&3),
			Width: 8,
			Val:   uint64(b[1]),
		}
		if ctl&1 != 0 {
			e.Op = mem.TraceStore
		}
		if ctl&2 != 0 {
			e.Width = 4
		}
		tid := int(ctl>>5) % len(threads)
		threads[tid] = append(threads[tid], e)
		seq += 1 + uint64(ctl>>2&1)
	}
	return threads
}

// TestCheckEventsMatchesReference: on random small traces the merging
// checker and the sort-based reference give identical reports.
func TestCheckEventsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	classes := map[string]int{}
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		for i := 2; i < len(data); i += 2 {
			data[i] %= 4 // values 0-3: frequent repeats, so stale reads occur
		}
		threads := decodeTrace(data)
		got, want := CheckEvents(threads), referenceCheck(threads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: trace %v\nmerge:     %+v\nreference: %+v", iter, threads, got, want)
		}
		for _, v := range got.Violations {
			classes[v.Class]++
		}
	}
	if classes[ClassStaleRead] == 0 || classes[ClassThinAir] == 0 {
		t.Fatalf("generator too tame, violations by class: %v", classes)
	}
}

// checkOn replays threads through t and reports its verdict.
func checkOn(t *mem.TraceRec, threads [][]mem.TraceEvent) *Report {
	replay(t, threads)
	return Check(t)
}

// TestWarmCheckerMatchesFresh: a recorder recycled after another trace
// filled its table, log and lookup reports on the next trace exactly
// what a new recorder does, so no state leaks from one check into the
// next.
func TestWarmCheckerMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trace := func() [][]mem.TraceEvent {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		for i := 2; i < len(data); i += 2 {
			data[i] %= 4
		}
		return decodeTrace(data)
	}
	pool := mem.NewPool(mem.Config{})
	warm := func(threads [][]mem.TraceEvent) *Report {
		rec := pool.GetTrace(len(threads), 0)
		defer pool.PutTrace(rec)
		return checkOn(rec, threads)
	}
	for iter := 0; iter < 2000; iter++ {
		a, b := trace(), trace()
		warm(a)
		if got, want := warm(b), checkOn(mem.NewTraceRec(len(b), 0), b); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: after trace %v, trace %v\nwarm:  %+v\nfresh: %+v", iter, a, b, got, want)
		}
	}
	// Locations enough to grow the table several times must leave no
	// stale slots behind either.
	big := violationTrace(1 << 12)
	warm(big)
	for iter := 0; iter < 50; iter++ {
		b := trace()
		if got, want := warm(b), referenceCheck(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("after a grown table, trace %v\nwarm:      %+v\nreference: %+v", b, got, want)
		}
	}
}

// violationTrace builds a 4-thread trace of n events over 512 locations
// in which most loads violate: stores write values 0-15, loads return
// values 0-31, so a load matches its location's latest write about one
// time in 32, and returns a value no store ever wrote about half the
// time.
func violationTrace(n int) [][]mem.TraceEvent {
	rng := rand.New(rand.NewSource(3))
	threads := make([][]mem.TraceEvent, 4)
	for seq := 0; seq < n; seq++ {
		tid := rng.Intn(len(threads))
		addr := 0x10000 + 8*uint64(rng.Intn(512))
		if rng.Intn(4) == 0 {
			threads[tid] = append(threads[tid], st(uint64(seq), addr, 8, uint64(rng.Intn(16))))
		} else {
			threads[tid] = append(threads[tid], ld(uint64(seq), addr, 8, uint64(rng.Intn(32))))
		}
	}
	return threads
}

// TestViolationHeavyMatchesReference: on a trace where most loads
// violate, both classes included, the checker matches the reference.
func TestViolationHeavyMatchesReference(t *testing.T) {
	threads := violationTrace(1 << 17)
	got, want := CheckEvents(threads), referenceCheck(threads)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checker and reference differ on the violation-heavy trace (%d vs %d violations)",
			len(got.Violations), len(want.Violations))
	}
	classes := map[string]int{}
	for _, v := range got.Violations {
		classes[v.Class]++
	}
	if 2*len(got.Violations) < int(got.Events) || classes[ClassStaleRead] == 0 || classes[ClassThinAir] == 0 {
		t.Fatalf("trace too tame: %d events, violations by class %v", got.Events, classes)
	}
}

func FuzzCheckEvents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x01, 1, 0x21, 2, 0x40, 1, 0x60, 7})
	f.Add([]byte{0x81, 0x09, 5, 0x08, 5, 0x29, 6, 0x28, 5, 0x28, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		threads := decodeTrace(data)
		if got, want := CheckEvents(threads), referenceCheck(threads); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %v\nmerge:     %+v\nreference: %+v", threads, got, want)
		}
	})
}

// cpipeTrace runs a 4-thread cpipe group and returns every event its
// recorder kept, per thread in program order, captured through a tap on
// the pooled recorder the run draws, together with that recorder and the
// pool. Replaying the capture reproduces the live recorder's event count
// and digest, so the capture differs from the live stream in no event's
// thread, sequence number, kind, address, width or value.
func cpipeTrace(tb testing.TB) ([][]mem.TraceEvent, *mem.TraceRec, *mem.Pool) {
	tb.Helper()
	w, err := workloads.ConcurrentByName("cpipe")
	if err != nil {
		tb.Fatal(err)
	}
	m := w.Build(4)
	m.Freeze()
	memCfg := mem.Config{}
	pool := mem.NewPool(memCfg)
	threads := make([][]mem.TraceEvent, 4)
	rec := pool.GetTrace(4, 0)
	rec.SetTap(func(tid int, e mem.TraceEvent) { threads[tid] = append(threads[tid], e) })
	pool.PutTrace(rec)
	res := sched.Run(m, sched.Config{Threads: 4, Seed: 1, VM: interp.Config{Seed: 1, Mem: memCfg, SpacePool: pool}})
	if c := res.Combined; c.Kind != interp.ExitNormal || c.Code != 0 {
		tb.Fatalf("cpipe: %v code %d (%s)", c.Kind, c.Code, c.Reason)
	}
	if res.Trace != rec {
		tb.Fatal("cpipe did not draw the tapped recorder from its pool")
	}
	rec.SetTap(nil)
	fresh := mem.NewTraceRec(4, 0)
	if r := checkOn(fresh, threads); !r.Clean() || fresh.Len() != rec.Len() || fresh.Digest() != rec.Digest() {
		tb.Fatalf("cpipe capture replays to %d events (digest %#x, %d violations), live recorder kept %d (digest %#x)",
			fresh.Len(), fresh.Digest(), len(r.Violations), rec.Len(), rec.Digest())
	}
	return threads, rec, pool
}

// smallTrace is a short clean 2-thread trace over a handful of
// locations: the kind of trial a recycled recorder mostly sees.
func smallTrace() [][]mem.TraceEvent {
	threads := make([][]mem.TraceEvent, 2)
	var cells [8]uint64
	for seq := uint64(0); seq < 64; seq++ {
		c := seq % 8
		if seq%3 == 0 {
			cells[c] = seq
			threads[seq%2] = append(threads[seq%2], st(seq, 0x1000+8*c, 8, seq))
		} else {
			threads[seq%2] = append(threads[seq%2], ld(seq, 0x1000+8*c, 8, cells[c]))
		}
	}
	return threads
}

// TestRecycledRecorderResetsWithoutAllocating: a recorder handed back
// after a 4-thread cpipe trial is reset and refilled with that trial's
// trace without allocating: its reset clears only the slots the trial
// used, and the refill fits the table and log the trial left.
func TestRecycledRecorderResetsWithoutAllocating(t *testing.T) {
	threads, rec, pool := cpipeTrace(t)
	digest := rec.Digest()
	allocs := testing.AllocsPerRun(5, func() {
		pool.PutTrace(rec)
		rec = pool.GetTrace(4, 0)
		replay(rec, threads)
	})
	if allocs != 0 {
		t.Fatalf("reset and refill allocated %.1f times per run, want 0", allocs)
	}
	if rec.Digest() != digest {
		t.Fatalf("refilled recorder digest %#x, live trial %#x", rec.Digest(), digest)
	}
	pool.PutTrace(rec)
	rec = pool.GetTrace(2, 0)
	small := smallTrace()
	if got, want := checkOn(rec, small), referenceCheck(small); !got.Clean() || !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled recorder on a small trace: %+v, reference %+v", got, want)
	}
}

// BenchmarkCheckEvents replays traces through the checking engine, one
// per iteration. cpipe4 is a recorded 4-thread cpipe trial's trace, on
// CheckEvents' pooled recorders. small is a 64-event trace on a new
// recorder; smallrecycled checks it on one recycled after the cpipe
// trace, whose reset clears only the slots the last check used, so the
// two rows read alike however large the earlier trace was.
func BenchmarkCheckEvents(b *testing.B) {
	threads, rec, pool := cpipeTrace(b)
	b.Run("cpipe4", func(b *testing.B) {
		b.ReportAllocs()
		var r *Report
		for i := 0; i < b.N; i++ {
			r = CheckEvents(threads)
		}
		b.StopTimer()
		if !r.Clean() || r.Events != rec.Len() {
			b.Fatalf("cpipe trace: %d violations, %d of %d events", len(r.Violations), r.Events, rec.Len())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*r.Events), "ns/event")
	})
	small := smallTrace()
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checkOn(mem.NewTraceRec(2, 0), small)
		}
	})
	b.Run("smallrecycled", func(b *testing.B) {
		pool.PutTrace(rec)
		rec := pool.GetTrace(4, 0)
		replay(rec, threads)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.PutTrace(rec)
			rec = pool.GetTrace(2, 0)
			checkOn(rec, small)
		}
	})
}

// BenchmarkCheckViolations checks the violation-heavy trace of
// TestViolationHeavyMatchesReference per iteration, pricing violation
// classification.
func BenchmarkCheckViolations(b *testing.B) {
	threads := violationTrace(1 << 17)
	b.ReportAllocs()
	b.ResetTimer()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = CheckEvents(threads)
	}
	b.StopTimer()
	if r.Clean() {
		b.Fatal("violation-heavy trace verified clean")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*r.Events), "ns/event")
}
