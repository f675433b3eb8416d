package mem

import (
	"testing"
	"testing/quick"
)

func newTestSpace() *Space {
	return NewSpace(Config{GlobalBytes: 64 * 1024, HeapBytes: 1024 * 1024, StackBytes: 64 * 1024})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := newTestSpace()
	addr, trap := s.Malloc(64)
	if trap != nil {
		t.Fatal(trap)
	}
	for _, tc := range []struct {
		n   int
		val uint64
	}{
		{1, 0xAB}, {2, 0xBEEF}, {4, 0xDEADBEEF}, {8, 0x0123456789ABCDEF},
	} {
		if trap := s.Store(addr, tc.n, tc.val); trap != nil {
			t.Fatalf("store %d: %v", tc.n, trap)
		}
		got, trap := s.Load(addr, tc.n)
		if trap != nil {
			t.Fatalf("load %d: %v", tc.n, trap)
		}
		if got != tc.val {
			t.Errorf("width %d: got %#x, want %#x", tc.n, got, tc.val)
		}
	}
}

func TestNullPageTraps(t *testing.T) {
	s := newTestSpace()
	if _, trap := s.Load(0, 8); trap == nil {
		t.Error("load of address 0 must trap")
	}
	if _, trap := s.Load(100, 4); trap == nil {
		t.Error("load inside null page must trap")
	}
	if trap := s.Store(8, 8, 1); trap == nil {
		t.Error("store to null page must trap")
	}
}

func TestGuardGapTraps(t *testing.T) {
	s := newTestSpace()
	// Just past the globals segment lies a guard gap.
	if _, trap := s.Load(s.globalsEnd+8, 8); trap == nil {
		t.Error("load in guard gap must trap")
	}
	if _, trap := s.Load(s.stackTop+1024*1024, 8); trap == nil {
		t.Error("load beyond space must trap")
	}
}

func TestMallocRoundsToClasses(t *testing.T) {
	tests := []struct{ req, class uint64 }{
		{0, 24}, {1, 24}, {16, 24}, {24, 24}, {25, 32}, {33, 48},
		{100, 128}, {1000, 1024}, {5000, 8192}, {4097, 8192},
	}
	for _, tc := range tests {
		if got := ClassFor(tc.req); got != max64(tc.class, minPayload) {
			t.Errorf("ClassFor(%d) = %d, want %d", tc.req, got, tc.class)
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestMallocMinimumSizeMakesSmallResizeBenign(t *testing.T) {
	// The §3.4 example: a 24-byte request resized to 16 bytes still gets
	// 24 bytes — the fault cannot manifest.
	if ClassFor(24) != ClassFor(16) {
		t.Error("24→16 byte resize should land in the same size class")
	}
	if ClassFor(48) == ClassFor(24) {
		t.Error("48→24 byte resize should shrink the buffer")
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(64)
	if trap := s.Free(a); trap != nil {
		t.Fatalf("free: %v", trap)
	}
	b, _ := s.Malloc(64)
	if a != b {
		t.Errorf("same-class malloc after free should reuse the buffer: %#x vs %#x", a, b)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(64)
	if trap := s.Free(a); trap != nil {
		t.Fatal(trap)
	}
	trap := s.Free(a)
	if trap == nil {
		t.Fatal("double free must trap")
	}
	if trap.Reason != "double free detected by allocator" {
		t.Errorf("unexpected reason: %s", trap.Reason)
	}
}

func TestInvalidFreeDetected(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(64)
	// Freeing an interior pointer finds no valid header.
	if trap := s.Free(a + 8); trap == nil {
		t.Error("interior free must trap")
	}
	if trap := s.Free(12); trap == nil {
		t.Error("free of non-heap pointer must trap")
	}
}

func TestFreeWritesMetadataIntoPayload(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(64)
	if trap := s.Store(a, 8, 0x1111111111111111); trap != nil {
		t.Fatal(trap)
	}
	if trap := s.Free(a); trap != nil {
		t.Fatal(trap)
	}
	got, trap := s.Load(a, 8)
	if trap != nil {
		t.Fatal(trap)
	}
	if got == 0x1111111111111111 {
		t.Error("free must overwrite the first payload word with free-list metadata")
	}
}

func TestHeaderCorruptionDetectedAtFree(t *testing.T) {
	s := newTestSpace()
	_, _ = s.Malloc(64)
	b, _ := s.Malloc(64)
	// Overflow from a into b's header: corrupt b's size but keep a
	// plausible magic... first corrupt size only.
	hdr := b - headerBytes
	s.data[hdr] = 0xFF // size becomes bogus
	trap := s.Free(b)
	if trap == nil {
		t.Fatal("free with corrupted size must trap")
	}
}

func TestOverflowCorruptsNeighbor(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(24)
	bAddr, _ := s.Malloc(24)
	if trap := s.Store(bAddr, 8, 42); trap != nil {
		t.Fatal(trap)
	}
	// Write 8 bytes starting 16 past a's 24-byte payload: lands in b's
	// payload (a 24-byte class + 16-byte header: offset 24+16=40 from a).
	if trap := s.Store(a+40, 8, 0xBADBADBADBAD); trap != nil {
		t.Fatal(trap)
	}
	got, _ := s.Load(bAddr, 8)
	if got != 0xBADBADBADBAD {
		t.Errorf("overflow did not corrupt neighbour: got %#x", got)
	}
}

func TestHeapPayloadSize(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(100)
	size, trap := s.HeapPayloadSize(a)
	if trap != nil {
		t.Fatal(trap)
	}
	if size != 128 {
		t.Errorf("payload size = %d, want 128", size)
	}
	_ = s.Free(a)
	if _, trap := s.HeapPayloadSize(a); trap == nil {
		t.Error("heapbufsize of freed buffer must trap")
	}
}

func TestOutOfHeapMemory(t *testing.T) {
	s := NewSpace(Config{HeapBytes: 64 * 1024, GlobalBytes: 4096, StackBytes: 4096})
	var lastTrap *Trap
	for i := 0; i < 100; i++ {
		_, lastTrap = s.Malloc(4096)
		if lastTrap != nil {
			break
		}
	}
	if lastTrap == nil {
		t.Fatal("heap exhaustion must eventually trap")
	}
	if lastTrap.Reason != "out of heap memory" {
		t.Errorf("unexpected reason: %s", lastTrap.Reason)
	}
}

func TestStackAllocaAndFrames(t *testing.T) {
	s := newTestSpace()
	mark := s.PushFrame()
	a, trap := s.Alloca(128)
	if trap != nil {
		t.Fatal(trap)
	}
	if trap := s.Store(a, 8, 7); trap != nil {
		t.Fatal(trap)
	}
	b, _ := s.Alloca(64)
	if b >= a {
		t.Error("stack must grow downward")
	}
	s.PopFrame(mark)
	if s.StackPointer() != uint64(mark) {
		t.Error("pop must restore the stack pointer")
	}
	// Stale stack data is still readable (dangling stack pointer
	// behaviour), not trapped.
	if _, trap := s.Load(a, 8); trap != nil {
		t.Errorf("dangling stack read should not trap: %v", trap)
	}
}

func TestStackOverflowTraps(t *testing.T) {
	s := NewSpace(Config{StackBytes: 4096, HeapBytes: 64 * 1024, GlobalBytes: 4096})
	var trapped bool
	for i := 0; i < 100; i++ {
		if _, trap := s.Alloca(512); trap != nil {
			trapped = true
			break
		}
	}
	if !trapped {
		t.Error("unbounded alloca must trap with stack overflow")
	}
}

func TestGlobalsBumpAllocator(t *testing.T) {
	s := newTestSpace()
	a, err := s.AllocGlobal(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AllocGlobal(8)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+100 {
		t.Error("globals must not overlap")
	}
	if a%8 != 0 || b%8 != 0 {
		t.Error("globals must be 8-byte aligned")
	}
	if trap := s.Store(a, 8, 1); trap != nil {
		t.Errorf("global store: %v", trap)
	}
}

func TestGlobalsExhaustion(t *testing.T) {
	s := NewSpace(Config{GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 4096})
	var failed bool
	for i := 0; i < 100; i++ {
		if _, err := s.AllocGlobal(512); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Error("globals segment exhaustion must error")
	}
}

func TestAllocStatsTracked(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(100) // class 128
	_, _ = s.Malloc(24)
	st := s.Stats()
	if st.HeapAllocs != 2 {
		t.Errorf("allocs = %d, want 2", st.HeapAllocs)
	}
	if st.HeapLive != 128+24 {
		t.Errorf("live = %d, want 152", st.HeapLive)
	}
	_ = s.Free(a)
	st = s.Stats()
	if st.HeapLive != 24 {
		t.Errorf("live after free = %d, want 24", st.HeapLive)
	}
	if st.HeapPeak != 152 {
		t.Errorf("peak = %d, want 152", st.HeapPeak)
	}
}

func TestCacheDeterministicAndLRU(t *testing.T) {
	c := NewCache(CacheConfig{Bytes: 1024, LineBytes: 64, Ways: 2}) // 8 sets
	if cost := c.Access(0); cost != CacheMissCost {
		t.Error("first access must miss")
	}
	if cost := c.Access(8); cost != CacheHitCost {
		t.Error("same-line access must hit")
	}
	// Two distinct lines map to set 0 in an 8-set cache: 0 and 8*64=512.
	c.Access(512)
	if cost := c.Access(0); cost != CacheHitCost {
		t.Error("2-way set must hold both lines")
	}
	c.Access(1024) // third line in set 0 evicts LRU (512)
	if cost := c.Access(512); cost != CacheMissCost {
		t.Error("LRU line must have been evicted")
	}
}

func TestCacheAccessCostDisabled(t *testing.T) {
	s := NewSpace(Config{DisableCache: true, GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 4096})
	for i := 0; i < 10; i++ {
		if cost := s.AccessCost(uint64(i * 1 << 20)); cost != CacheHitCost {
			t.Fatal("disabled cache must charge flat cost")
		}
	}
}

func TestMallocFreePropertyNoOverlap(t *testing.T) {
	// Property: live buffers never overlap, whatever interleaving of
	// mallocs and frees occurs.
	f := func(ops []uint8) bool {
		s := newTestSpace()
		type buf struct{ addr, size uint64 }
		var live []buf
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				if s.Free(live[i].addr) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint64(op%200) + 1
			a, trap := s.Malloc(size)
			if trap != nil {
				return false
			}
			live = append(live, buf{a, ClassFor(size)})
		}
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.addr < b.addr+b.size && b.addr < a.addr+a.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadWriteBytes(t *testing.T) {
	s := newTestSpace()
	a, _ := s.Malloc(32)
	data := []byte("hello world")
	if trap := s.WriteBytes(a, data); trap != nil {
		t.Fatal(trap)
	}
	got, trap := s.ReadBytes(a, uint64(len(data)))
	if trap != nil {
		t.Fatal(trap)
	}
	if string(got) != "hello world" {
		t.Errorf("got %q", got)
	}
	if _, trap := s.ReadBytes(10, 8); trap == nil {
		t.Error("ReadBytes from null page must trap")
	}
}

// TestCheckpointUnchanged: a space that has only been read since a
// checkpoint is unchanged, and Advance grows exactly the counters reads
// move; a store, a heap allocation and free, a live alloca or an
// attached trace recorder each make it changed.
func TestCheckpointUnchanged(t *testing.T) {
	// Five lines of one 4-way set, read round robin, miss every time and
	// leave the set's LRU order as they found it; one more line, in
	// another set, hits.
	read := func(s *Space, addr uint64) {
		for _, a := range []uint64{addr, addr + 8192, addr + 2*8192, addr + 3*8192, addr + 4*8192, addr + 64} {
			if _, _, trap := s.LoadCosted(a, 8); trap != nil {
				t.Fatal(trap)
			}
		}
	}
	// The checkpoint follows one pass of the reads, so that repeating them
	// leaves the cache's tags as they were.
	setup := func() (*Space, uint64, *Checkpoint) {
		s := newTestSpace()
		addr, trap := s.Malloc(5 * 8192)
		if trap != nil {
			t.Fatal(trap)
		}
		read(s, addr)
		var c Checkpoint
		s.Checkpoint(&c)
		return s, addr, &c
	}
	s, addr, c := setup()
	hits0, misses0 := s.cache.Counts()
	loads0 := s.stats.Loads
	read(s, addr)
	if !s.Unchanged(c) {
		t.Fatal("loads alone changed the space")
	}
	hits, misses := s.cache.Counts()
	loads := s.stats.Loads
	if hits == hits0 || misses == misses0 {
		t.Fatalf("the reads should both hit and miss: %d hits, %d misses since the checkpoint", hits-hits0, misses-misses0)
	}
	s.Advance(c, 3)
	if s.stats.Loads != loads+3*(loads-loads0) || s.cache.hits != hits+3*(hits-hits0) || s.cache.misses != misses+3*(misses-misses0) {
		t.Errorf("Advance(3) from %d loads, %d hits, %d misses gave %d, %d, %d", loads, hits, misses,
			s.stats.Loads, s.cache.hits, s.cache.misses)
	}
	for name, act := range map[string]func(s *Space, addr uint64){
		"store":       func(s *Space, addr uint64) { s.Store(addr, 8, 0) },
		"malloc+free": func(s *Space, _ uint64) { p, _ := s.Malloc(8); s.Free(p) },
		"alloca":      func(s *Space, _ uint64) { s.Alloca(8) },
		"traced":      func(s *Space, _ uint64) { s.SetTrace(NewTraceRec(1, 0)) },
	} {
		s, addr, c := setup()
		act(s, addr)
		if s.Unchanged(c) {
			t.Errorf("%s: space reported unchanged", name)
		}
	}
}
