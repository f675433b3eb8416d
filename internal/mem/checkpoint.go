package mem

import (
	"maps"
	"slices"
)

// Checkpoint is the part of a Space's state that a stretch of execution
// which writes nothing can still move: the stack pointer and its floor,
// the globals, heap and dirty-memory marks, the allocator's free lists,
// the statistics and the cache's tags and counters. The interpreter's
// periodic fast-forward takes one at an instruction boundary and, at a
// later boundary, asks the Space whether it is back in the same state
// with nothing written in between (Unchanged). Memory itself is never
// copied: a write-free stretch cannot have changed it.
type Checkpoint struct {
	sp, spLo, globalsCur uint64
	heapCur, heapWriteHi uint64
	stackWriteLo         uint64
	freeList             map[uint64]uint64
	stats                Stats
	tags                 []uint64
	hits, misses         uint64
}

// Checkpoint records s's current state into c, reusing c's buffers.
func (s *Space) Checkpoint(c *Checkpoint) {
	c.sp, c.spLo, c.globalsCur = s.sp, s.spLo, s.globalsCur
	c.heapCur, c.heapWriteHi, c.stackWriteLo = s.alloc.cur, s.heapWriteHi, s.stackWriteLo
	if c.freeList == nil {
		c.freeList = make(map[uint64]uint64, len(s.alloc.freeList))
	}
	clear(c.freeList)
	maps.Copy(c.freeList, s.alloc.freeList)
	c.stats = s.stats
	c.tags, c.hits, c.misses = c.tags[:0], 0, 0
	if s.cache != nil {
		c.tags = append(c.tags, s.cache.tags...)
		c.hits, c.misses = s.cache.hits, s.cache.misses
	}
}

// Unchanged reports whether s is in the state c recorded and has been
// written nowhere since: no store, no heap allocation or free. Only the
// load count and the cache's hit and miss counters may have grown. A
// traced space never reports unchanged, since its recorder checks every
// access.
func (s *Space) Unchanged(c *Checkpoint) bool {
	if s.trace != nil || s.sp != c.sp || s.spLo != c.spLo || s.globalsCur != c.globalsCur ||
		s.alloc.cur != c.heapCur || s.heapWriteHi != c.heapWriteHi || s.stackWriteLo != c.stackWriteLo {
		return false
	}
	st := s.stats
	st.Loads = c.stats.Loads
	if st != c.stats || !maps.Equal(s.alloc.freeList, c.freeList) {
		return false
	}
	if s.cache == nil {
		return len(c.tags) == 0
	}
	return slices.Equal(s.cache.tags, c.tags)
}

// Advance adds n times the growth since c of the counters an unchanged
// space (Unchanged) may move — loads, cache hits and cache misses — as
// if the stretch from c to now had run n more times.
func (s *Space) Advance(c *Checkpoint, n uint64) {
	s.stats.Loads += n * (s.stats.Loads - c.stats.Loads)
	if s.cache != nil {
		s.cache.hits += n * (s.cache.hits - c.hits)
		s.cache.misses += n * (s.cache.misses - c.misses)
	}
}
