// Campaign engine internals: the stage-1 module cache and the stage-2
// worker pool. The cache guarantees each distinct (workload, site,
// variant) module is built — parsed, fault-injected, DPMR-transformed,
// optimized — exactly once per Runner, no matter how many of the
// sites × variants × runs trials execute it or from how many goroutines.
// The pool fans trial indices out across the policy's workers; callers
// aggregate the indexed results in canonical order afterwards, which is
// what keeps parallel campaigns byte-identical to serial ones. The pool
// is context-aware: cancellation stops dispatch and drains in-flight
// trials, so the completed indices always form a prefix of the range
// and no worker goroutine outlives the call.

package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpmr/internal/faultinject"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/workloads"
)

// Event is a typed progress notification streamed while an experiment
// executes: TrialDone and Progress per completed trial, ShardMerged per
// merged partial result, CacheStats as a counters snapshot. Subscribe
// through Session.Events, or set Options.Events for a callback sink.
type Event interface{ event() }

// TrialDone reports one completed trial: Done of Total have finished.
// Events arrive in completion order, not trial order. Elapsed is the
// trial's monotonic wall-clock execution time — the observed-cost signal
// the campaign journal and adaptive shard sizing consume.
type TrialDone struct {
	Done    int
	Total   int
	Elapsed time.Duration
}

// Progress is the per-trial rollup the CLIs render: completion count
// plus a module-cache snapshot.
type Progress struct {
	Done  int
	Total int
	Stats CacheStats
}

// ShardMerged reports one partial result folded into a merge: the shard
// and the contiguous trial range [Lo, Hi) of the Total-trial plan it
// covered. Merges emit shards in canonical (range) order. Elapsed is the
// shard's recorded wall-clock execution time (zero when the producing
// process predates the timing stamp or the partial was hand-built).
type ShardMerged struct {
	Shard   ShardSpec
	Lo      int
	Hi      int
	Total   int
	Elapsed time.Duration
}

func (TrialDone) event()   {}
func (Progress) event()    {}
func (ShardMerged) event() {}
func (CacheStats) event()  {}

// moduleKey identifies one distinct executable module of a campaign.
type moduleKey struct {
	workload string
	site     string // faultinject.Site string, "" = no injection
	variant  string // Variant label
}

// moduleEntry is one cache slot: the frozen module plus (unless the
// policy is Reference) its pre-decoded interp.Program, compiled once
// alongside the build and shared by every trial of the module. Eviction drops the
// entry whole, so a module and its program always leave the cache
// together. The sync.Once gives per-key build deduplication without
// holding the cache lock during the (expensive) build.
type moduleEntry struct {
	once sync.Once
	m    *ir.Module
	prog *interp.Program
	err  error
}

// CacheStats counts module-cache activity over a Runner's lifetime.
// Every module but the bases leaves the cache after its last trial (see
// lastUse), so Peak tracks only the modules whose trials are still
// pending, and between runs Resident is the bases that seed builds.
// CacheStats is also an Event: sessions emit a final snapshot when an
// experiment completes.
type CacheStats struct {
	// Builds counts successful module builds. A module evicted before its
	// trials in a run finished would be rebuilt within that run, so a
	// run's Builds exceeding its distinct modules is the signature of a
	// premature eviction.
	Builds int
	// Evicted counts modules released after their final trial.
	Evicted int
	// Resident is the number of modules currently held by the cache.
	Resident int
	// Peak is the high-water Resident count.
	Peak int
}

type moduleCache struct {
	mu      sync.Mutex
	entries map[moduleKey]*moduleEntry
	stats   CacheStats
}

func newModuleCache() *moduleCache {
	return &moduleCache{entries: make(map[moduleKey]*moduleEntry)}
}

// get returns the module (and its compiled program, which may be nil) for
// key, invoking build at most once per key across all goroutines. The
// module returned by build must already be frozen; every caller shares it
// — and the program — read-only.
func (c *moduleCache) get(key moduleKey, build func() (*ir.Module, *interp.Program, error)) (*ir.Module, *interp.Program, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &moduleEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.m, e.prog, e.err = build()
		if e.err == nil {
			c.mu.Lock()
			c.stats.Builds++
			c.stats.Resident++
			if c.stats.Resident > c.stats.Peak {
				c.stats.Peak = c.stats.Resident
			}
			c.mu.Unlock()
		}
	})
	return e.m, e.prog, e.err
}

// evict releases key's module. Callers must guarantee no trial still needs
// the module: lastUse only evicts a key once its pending-trial count
// reaches zero, which also means the entry's build has completed (the
// evicting goroutine just ran a trial, or the golden group, through get).
func (c *moduleCache) evict(key moduleKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	delete(c.entries, key)
	if e.m != nil {
		c.stats.Evicted++
		c.stats.Resident--
	}
}

func (c *moduleCache) statsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// trial is one executable experiment (W, C, D, I, RN) of a campaign grid.
type trial struct {
	w   workloads.Workload
	v   Variant
	inj *faultinject.Site
	rn  int
}

// key returns the module-cache key the trial executes.
func (t trial) key() moduleKey {
	k := moduleKey{workload: t.w.Name, variant: t.v.Label()}
	if t.inj != nil {
		k.site = t.inj.String()
	}
	return k
}

// execRows runs row(lo), …, row(hi-1) on the worker pool and returns
// the rows in trial order. Trials are dispatched in index order and
// cancellation only stops dispatch (in-flight trials drain), so the
// completed trials always form a prefix: a cancelled range returns that
// prefix together with ctx's error — the completed-prefix contract
// graceful cancellation is built on. A trial error fails the range,
// named by name.
func execRows[E any](ctx context.Context, r *Runner, lo, hi int, row func(i int) (E, error), name func(i int) string) ([]E, error) {
	rows := make([]E, hi-lo)
	errs := make([]error, hi-lo)
	done := r.fanOut(ctx, hi-lo, func(i int) { rows[i], errs[i] = row(lo + i) })
	for i, err := range errs[:done] {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name(lo+i), err)
		}
	}
	if done < hi-lo {
		return rows[:done], context.Cause(ctx)
	}
	return rows, nil
}

// lastUse counts, per evictable module, the trials still to run in
// the ranges one run executes — a single range, or every span of a
// journaled loop — and releases each module from the cache after its
// last one, so a persistent Runner holds only the bases between runs
// and, because a site's trials are contiguous in the canonical plan,
// peak residency stays bounded at large site counts. Counting over the
// whole run rather than one range at a time keeps a module whose trials
// straddle two spans resident between them. The counters make release
// order-independent, and therefore safe at any worker count. A later run
// that needs the module again rebuilds it.
type lastUse map[moduleKey]*int64

// done records that one trial of module k finished, releasing k after
// the last.
func (u lastUse) done(r *Runner, k moduleKey) {
	if c := u[k]; c != nil && atomic.AddInt64(c, -1) == 0 {
		r.cache.evict(k)
	}
}

// release drops module k unless a counted trial still needs it: for a
// module built outside the counted trials, such as a concurrent golden
// group's.
func (u lastUse) release(r *Runner, k moduleKey) {
	if c := u[k]; c == nil || atomic.LoadInt64(c) == 0 {
		r.cache.evict(k)
	}
}

// execTrials runs the campaign trials [lo, hi) and returns their
// classifications. Only the serializable classification fields survive:
// the raw interpreter result is dropped per trial, releasing each output
// buffer instead of pinning all of them until the campaign ends. Each
// injected module leaves the cache after its last trial in live.
func (r *Runner) execTrials(ctx context.Context, plan *campaignPlan, lo, hi int, live lastUse) ([]TrialOutcome, error) {
	pool := r.spaces()
	return execRows(ctx, r, lo, hi, func(i int) (TrialOutcome, error) {
		t := plan.trials[i]
		o, err := r.runOnce(t.w, t.v, t.inj, t.rn, pool)
		live.done(r, t.key())
		return o.Trial(), err
	}, func(i int) string {
		t := plan.trials[i]
		return fmt.Sprintf("trial %d: %s %s %s", i, t.v.Label(), t.w.Name, *t.inj)
	})
}

// execHook, when set, observes every Runner as it starts executing a
// trial range: the seam the policy tests watch.
var execHook func(*Runner)

// fanOut runs fn(0..n-1) across the Runner's worker pool and returns the
// number of indices completed. Each index is processed at most once; fn
// must only write to index-i slots of shared slices. Indices are
// dispatched in order and cancellation stops only dispatch — every
// dispatched index runs to completion and every worker goroutine exits
// before fanOut returns — so the completed set is always the prefix
// [0, done). TrialDone and Progress events are emitted after each
// completed index.
func (r *Runner) fanOut(ctx context.Context, n int, fn func(i int)) int {
	done := 0
	report := func(elapsed time.Duration) {
		if r.Events == nil {
			return
		}
		r.progressMu.Lock()
		done++
		r.Events(TrialDone{Done: done, Total: n, Elapsed: elapsed})
		r.Events(Progress{Done: done, Total: n, Stats: r.cache.statsSnapshot()})
		r.progressMu.Unlock()
	}
	timed := func(i int) time.Duration {
		start := time.Now()
		fn(i)
		return time.Since(start)
	}
	if execHook != nil {
		execHook(r)
	}
	workers := r.parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			report(timed(i))
		}
		return n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				report(timed(i))
			}
		}()
	}
	dispatched := 0
	for i := 0; i < n; i++ {
		// Check cancellation before the blocking select: with a worker
		// already waiting on idx, both select cases would be ready and the
		// runtime picks randomly — which could dispatch a trial under an
		// already-cancelled context.
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
			dispatched++
			continue
		case <-ctx.Done():
		}
		break
	}
	close(idx)
	wg.Wait()
	return dispatched
}

// CacheStats reports the Runner's module-cache counters: builds,
// evictions, and current/peak residency.
func (r *Runner) CacheStats() CacheStats { return r.cache.statsSnapshot() }
