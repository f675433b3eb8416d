package mem

import (
	"bytes"
	"sync"
	"testing"
)

// workout drives one space through a representative mix of dirtying
// operations — allocation, wild and in-bounds stores, frees (free-list
// metadata), allocas, cached accesses — and returns a transcript of every
// observable value so two spaces can be compared operation by operation.
func workout(t *testing.T, s *Space) []uint64 {
	t.Helper()
	var log []uint64
	note := func(vs ...uint64) { log = append(log, vs...) }

	ga, err := s.AllocGlobal(64)
	if err != nil {
		t.Fatal(err)
	}
	note(ga)
	if trap := s.Store(ga+8, 8, 0xDEAD); trap != nil {
		t.Fatal(trap)
	}
	p1, trap := s.Malloc(40)
	if trap != nil {
		t.Fatal(trap)
	}
	p2, trap := s.Malloc(200)
	if trap != nil {
		t.Fatal(trap)
	}
	note(p1, p2)
	for i := uint64(0); i < 64; i += 8 {
		if trap := s.Store(p2+i, 8, i); trap != nil {
			t.Fatal(trap)
		}
	}
	// Overflow write past p1 into p2's header region (the fault model the
	// paper relies on) plus a dangling read after free.
	if trap := s.Store(p1+56, 8, 0xBADF00D); trap != nil {
		t.Fatal(trap)
	}
	if trap := s.Free(p1); trap != nil {
		t.Fatal(trap)
	}
	v, trap := s.Load(p1, 8) // dangling read sees free-list metadata
	if trap != nil {
		t.Fatal(trap)
	}
	note(v)
	p3, trap := s.Malloc(40) // recycles p1's class
	if trap != nil {
		t.Fatal(trap)
	}
	note(p3)
	mark := s.PushFrame()
	a1, trap := s.Alloca(128)
	if trap != nil {
		t.Fatal(trap)
	}
	note(a1)
	if trap := s.Store(a1, 4, 77); trap != nil {
		t.Fatal(trap)
	}
	for i := 0; i < 64; i++ {
		note(s.AccessCost(p2 + uint64(i*64)))
	}
	s.PopFrame(mark)
	hs, ms := uint64(0), uint64(0)
	if s.cache != nil {
		hs, ms = s.cache.Counts()
	}
	st := s.Stats()
	note(hs, ms, st.HeapAllocs, st.HeapFrees, st.HeapLive, st.HeapPeak, st.Loads, st.Stores)
	return log
}

// TestResetRestoresPristineState runs a dirtying workout, resets, and
// asserts the space is byte-for-byte and behavior-for-behavior identical
// to a freshly allocated one — the property that makes pooled spaces
// invisible in recorded results.
func TestResetRestoresPristineState(t *testing.T) {
	cfg := Config{GlobalBytes: 8 * 1024, HeapBytes: 256 * 1024, StackBytes: 32 * 1024}
	fresh := NewSpace(cfg)
	used := NewSpace(cfg)
	first := workout(t, used)
	used.Reset()

	if !bytes.Equal(used.data, fresh.data) {
		for i := range used.data {
			if used.data[i] != fresh.data[i] {
				t.Fatalf("reset space differs from fresh at byte %#x: %d != %d", i, used.data[i], fresh.data[i])
			}
		}
	}
	if used.Stats() != (Stats{}) {
		t.Errorf("reset stats = %+v, want zero", used.Stats())
	}
	// A second workout on the reset space must replay the first exactly
	// (addresses, dangling-read garbage, cache costs, counters).
	second := workout(t, used)
	if len(first) != len(second) {
		t.Fatalf("workout transcripts differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("workout transcript differs at %d: %#x vs %#x", i, first[i], second[i])
		}
	}
	// And a fresh space produces the same transcript too.
	if third := workout(t, fresh); len(third) != len(first) {
		t.Fatalf("fresh transcript length %d, want %d", len(third), len(first))
	} else {
		for i := range first {
			if first[i] != third[i] {
				t.Fatalf("fresh transcript differs at %d", i)
			}
		}
	}
}

func TestResetDisabledCache(t *testing.T) {
	s := NewSpace(Config{GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 8 * 1024, DisableCache: true})
	if _, trap := s.Malloc(32); trap != nil {
		t.Fatal(trap)
	}
	s.Reset() // must not panic with the cache model off
	if got := s.AccessCost(0x2000); got != CacheHitCost {
		t.Errorf("disabled-cache access cost %d, want %d", got, CacheHitCost)
	}
}

// TestPoolRecycles checks Get/Put reuse and that a recycled space is
// pristine.
func TestPoolRecycles(t *testing.T) {
	cfg := Config{GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 8 * 1024}
	p := NewPool(cfg)
	s1 := p.Get()
	addr, trap := s1.Malloc(100)
	if trap != nil {
		t.Fatal(trap)
	}
	if trap := s1.Store(addr, 8, 42); trap != nil {
		t.Fatal(trap)
	}
	p.Put(s1)
	s2 := p.Get()
	if s2 != s1 {
		t.Fatalf("pool did not recycle the space")
	}
	if s2.Stats() != (Stats{}) {
		t.Errorf("recycled stats = %+v", s2.Stats())
	}
	if v, trap := s2.Load(addr, 8); trap == nil && v != 0 {
		t.Errorf("recycled space leaked previous contents: %#x", v)
	}
	addr2, trap := s2.Malloc(100)
	if trap != nil {
		t.Fatal(trap)
	}
	if addr2 != addr {
		t.Errorf("recycled allocation address %#x, want %#x (deterministic layout)", addr2, addr)
	}
	p.Put(s2)
	p.Put(nil) // no-op
	if got := p.Get(); got != s2 {
		t.Errorf("second recycle failed")
	}
}

// TestSharedPoolReusesLatestGeometry: every caller of one geometry gets
// the same shared pool, so a space one owner put back serves the next;
// asking for a second geometry drops the first, whose spaces are then no
// longer retained.
func TestSharedPoolReusesLatestGeometry(t *testing.T) {
	a := Config{GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 8 * 1024}
	b := Config{GlobalBytes: 4096, HeapBytes: 128 * 1024, StackBytes: 8 * 1024}
	p := SharedPool(a)
	if SharedPool(a.WithDefaults()) != p {
		t.Fatal("one normalized geometry got two shared pools")
	}
	s := p.Get()
	p.Put(s)
	if got := SharedPool(a).Get(); got != s {
		t.Fatal("a second owner of the geometry did not reuse the space the first put back")
	}
	p.Put(s)
	if q := SharedPool(b); q == p || q.Config() != b.WithDefaults() {
		t.Fatalf("second geometry served by the first geometry's pool (config %+v)", q.Config())
	}
	p2 := SharedPool(a)
	if p2 == p {
		t.Fatal("the first geometry's pool outlived a request for another")
	}
	if got := p2.Get(); got == s {
		t.Fatal("the first geometry's space was retained across another geometry")
	}
}

// TestSharedPoolConcurrentUse: owners of two geometries drawing and
// returning spaces at once always get a space of their own geometry
// (run with -race).
func TestSharedPoolConcurrentUse(t *testing.T) {
	cfgs := []Config{
		{GlobalBytes: 4096, HeapBytes: 64 * 1024, StackBytes: 8 * 1024},
		{GlobalBytes: 4096, HeapBytes: 128 * 1024, StackBytes: 8 * 1024},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cfg := cfgs[g%2].WithDefaults()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := SharedPool(cfg)
				s := p.Get()
				if got := s.heapEnd - s.heapBase; got != uint64(cfg.HeapBytes) {
					t.Errorf("drew a %d-byte heap from the pool of %d-byte heaps", got, cfg.HeapBytes)
				}
				if _, trap := s.Malloc(64); trap != nil {
					t.Error(trap)
				}
				p.Put(s)
			}
		}()
	}
	wg.Wait()
}

// TestLoadStoreCostedMatchSeparateCalls drives identical access sequences
// through the fused and separate entry points and asserts equal costs,
// values, traps, statistics, and cache state evolution.
func TestLoadStoreCostedMatchSeparateCalls(t *testing.T) {
	cfg := Config{GlobalBytes: 4096, HeapBytes: 128 * 1024, StackBytes: 8 * 1024}
	a := NewSpace(cfg)
	b := NewSpace(cfg)
	pa, _ := a.Malloc(4096)
	pb, _ := b.Malloc(4096)
	if pa != pb {
		t.Fatalf("layouts diverge: %#x vs %#x", pa, pb)
	}
	addrs := []uint64{pa, pa + 8, pa + 64, pa + 8, pa + 4096*3, 0, pa + 1024, pa + 64}
	for i, addr := range addrs {
		costA := a.AccessCost(addr)
		valA, trapA := a.Load(addr, 8)
		valB, costB, trapB := b.LoadCosted(addr, 8)
		if costA != costB || valA != valB || (trapA == nil) != (trapB == nil) {
			t.Fatalf("load %d at %#x: separate (%d, %d, %v) vs fused (%d, %d, %v)",
				i, addr, valA, costA, trapA, valB, costB, trapB)
		}
		costA = a.AccessCost(addr)
		trapA = a.Store(addr, 8, uint64(i))
		costB, trapB = b.StoreCosted(addr, 8, uint64(i))
		if costA != costB || (trapA == nil) != (trapB == nil) {
			t.Fatalf("store %d at %#x: separate (%d, %v) vs fused (%d, %v)", i, addr, costA, trapA, costB, trapB)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	ha, ma := a.cache.Counts()
	hb, mb := b.cache.Counts()
	if ha != hb || ma != mb {
		t.Errorf("cache counters diverge: %d/%d vs %d/%d", ha, ma, hb, mb)
	}
}
