// Package coord schedules the shards of a canonical experiment plan
// across a fleet of workers and collects their streamed partial results.
//
// The coordinator turns manual sharding (start N processes by hand, merge
// the files, hope none dies) into a supervised fleet: it cuts the plan
// into M shards (M ≥ worker count), leases each shard to a worker,
// reassigns a shard whose lease expires (straggler speculation) or whose
// worker dies (crash retry), and keeps the first-completed result per
// shard — deterministically safe, because every shard of a plan is a pure
// function of its range, so speculative duplicates are byte-identical.
// Results are opaque serialized partials (harness.PartialResult,
// harness.ExperimentPartial), so one scheduler drives single campaigns,
// whole experiments, and sharded overhead runs alike; the harness merge
// layer's fingerprint and gap/overlap validation stays in place
// downstream as the end-to-end safety net under the coordinator's
// bookkeeping. This metadata-light division of labor — tiny per-shard
// state, global consistency enforced at merge — follows the partial
// replication coordination regime of Xiang & Vaidya (2016, 2017).
//
// Run is the one entry point: a Config names the Spec, the cut, the
// fleet and, for a journaled run, the harness.Resume whose gaps are
// leased and whose journal each first result lands in. The CLIs' -coord
// flags build their Config through CLIFlags.Fleet, and dpmrd builds its
// own over its shared worker pool.
//
// Workers are in-process (Local: a persistent Runner per fleet slot;
// Func: any function) or spawned worker processes (Proc: `dpmr-exp
// -worker`, `dpmr-run -worker`) speaking the JSON-lines
// Assignment/Completion protocol over stdio; Serve is the worker side of
// that protocol.
package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

// Failpoint sites: the scheduler's own failure shapes, drillable by
// name. coord/dispatch misbehaves as the attempt starts (err = the
// worker crashed taking the assignment; stall = the attempt wedges
// long enough to blow its lease); coord/completion swallows a
// finished shard's first result, exercising the retry path a lost
// completion would take.
var (
	siteDispatch   = failpt.Register("coord/dispatch", failpt.KindErr, failpt.KindStall)
	siteCompletion = failpt.Register("coord/completion", failpt.KindDrop)
)

// PoisonShardError is the named refusal for a poison shard: one whose
// attempts failed on PoisonK distinct worker incarnations. The shard
// is isolated (the run stops retrying it) and the refusal names it,
// because a shard that kills every worker it touches is a defect in
// the plan or the workload, not transient bad luck — retrying forever
// would grind the fleet down worker by worker.
type PoisonShardError struct {
	Shard, Of   int   // shard index, total shards
	Workers     int   // distinct worker incarnations it failed
	Attempts    int   // dispatches consumed
	LastFailure error // the final attempt's error
}

func (e *PoisonShardError) Error() string {
	return fmt.Sprintf("coord: shard %d/%d is poison: failed %d distinct workers in %d attempts, isolating it; last failure: %v",
		e.Shard, e.Of, e.Workers, e.Attempts, e.LastFailure)
}

func (e *PoisonShardError) Unwrap() error { return e.LastFailure }

// chaosKillDelay is how long after its first dispatch a chaos-targeted
// worker is killed: long enough for the assignment to reach the process
// and the shard to start, short enough to land mid-run on any real shard.
// Every interleaving (kill before, during, or after the shard completes)
// is safe — retry plus first-result-wins keeps the output identical.
const chaosKillDelay = 25 * time.Millisecond

// Worker executes shard assignments for Run.
type Worker interface {
	// Run executes one shard of the Spec's canonical plan and returns
	// the shard's serialized partial result. Run is called serially per
	// worker; an error means this attempt is lost (the coordinator
	// reassigns the shard and replaces the worker).
	Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error)
	// Close releases the worker. For process-backed workers it kills the
	// process; Close may be called concurrently with Run (failing the
	// in-flight attempt) and more than once.
	Close() error
}

// Func adapts an in-process function to a Worker — the goroutine fleet.
// The function must be safe for concurrent calls: the same Func may back
// several fleet slots at once.
type Func func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error)

// Run implements Worker.
func (f Func) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	return f(ctx, spec, shard)
}

// Close implements Worker; an in-process worker holds nothing.
func (Func) Close() error { return nil }

// Config describes one fleet run: the Spec to schedule, how its plan is
// cut, the fleet, and the retry policy.
type Config struct {
	// Spec is the declarative experiment description every assignment
	// carries; workers recompute the identical plan (and fingerprint)
	// from it rather than re-deriving state from their argv.
	Spec harness.Spec
	// Shards is M, the number of plan slices to schedule. More shards
	// than workers (M ≥ Workers is enforced without Resume) keeps the
	// fleet busy when shards finish unevenly and bounds the work lost to
	// a crash or straggler at 1/M of the plan.
	Shards int
	// Resume, when set, journals the run: Run leases Resume.Spans(Shards)
	// — the journal's gaps, cut adaptively from its observed per-trial
	// cost — instead of the uniform cut, and appends each shard's first
	// result through Resume before marking the shard done. A complete
	// journal leases nothing and spawns no worker. The M ≥ Workers rule is
	// waived: a nearly complete journal can leave fewer gaps than the
	// fleet has workers.
	Resume *harness.Resume
	// Workers is the fleet size.
	Workers int
	// Lease bounds how long one shard assignment may run before the
	// coordinator speculatively reassigns it to another worker (the
	// original attempt keeps running; the first completion wins).
	// 0 disables lease expiry.
	Lease time.Duration
	// MaxAttempts caps dispatches per shard, counting speculative
	// reassignments; 0 means the default of 3.
	MaxAttempts int
	// PoisonK is the poison-shard threshold: a shard whose attempts
	// fail on this many distinct worker incarnations is isolated and
	// the run refuses with a named PoisonShardError instead of
	// retrying further. 0 means the default of 3; it cannot exceed
	// MaxAttempts meaningfully (attempts exhaust first).
	PoisonK int
	// Quarantine is the base backoff before respawning a worker slot
	// whose attempt died on a transport error. Repeated deaths double
	// it (capped at 5s) with jitter — the circuit breaker that stops a
	// persistent fault from hot-looping respawns. 0 means the 50ms
	// default; negative disables quarantine entirely.
	Quarantine time.Duration
	// Spawn constructs the worker for fleet slot id, both for the
	// initial fleet and to replace a worker whose attempt failed. It
	// must be safe for concurrent use.
	Spawn func(id int) (Worker, error)
	// Chaos is a fault drill for the retry path: this many workers are
	// hard-killed (Worker.Close) shortly after their first assignment.
	// Workers whose Close releases nothing (Func, Local) are unaffected.
	Chaos int
	// OnResult, when non-nil, sees every payload Run returns exactly
	// once, with the shard it covers: a Resume's replayed payloads first,
	// then each shard's first completed payload from inside the
	// scheduling loop — after the Resume, if any, has journaled it and
	// before the shard is marked done. Duplicate (speculative)
	// completions are never delivered. An error aborts the run.
	OnResult func(shard harness.ShardSpec, payload []byte) error
	// Log, when non-nil, receives scheduling diagnostics (dispatches,
	// retries, lease expiries, kills). Calls are serialized.
	Log func(format string, args ...any)
}

// validate checks the configuration and fills in its defaults.
func (cfg *Config) validate() error {
	if cfg.Workers < 1 {
		return fmt.Errorf("coord: %d workers: the fleet needs at least 1", cfg.Workers)
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("coord: %d shards: the plan needs at least 1 slice", cfg.Shards)
	}
	if cfg.Shards < cfg.Workers && cfg.Resume == nil {
		return fmt.Errorf("coord: %d shards for %d workers: cut the plan at least as fine as the fleet", cfg.Shards, cfg.Workers)
	}
	if cfg.Lease < 0 {
		return fmt.Errorf("coord: negative lease %v", cfg.Lease)
	}
	if cfg.MaxAttempts < 0 {
		return fmt.Errorf("coord: negative MaxAttempts %d", cfg.MaxAttempts)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.PoisonK < 0 {
		return fmt.Errorf("coord: negative PoisonK %d", cfg.PoisonK)
	}
	if cfg.PoisonK == 0 {
		cfg.PoisonK = 3
	}
	if cfg.Quarantine == 0 {
		cfg.Quarantine = DefaultQuarantine
	}
	if cfg.Spawn == nil {
		return fmt.Errorf("coord: no Spawn factory")
	}
	return nil
}

// completion is one attempt's outcome, posted by a worker goroutine.
type completion struct {
	shard   int
	worker  int // worker incarnation that ran the attempt, for poison tracking
	payload []byte
	err     error
}

// Run schedules the Spec's shards on the fleet until every shard has a
// result and returns the payloads in trial order — the deterministic
// merge order, independent of completion order; with Resume, the
// replayed and fresh payloads together. It fails if a shard exhausts
// MaxAttempts (its attempts all erroring, or — with a Lease set — all
// outliving their leases, i.e. a wedged shard) or if the whole fleet
// dies and cannot be respawned; duplicated work from speculative retries
// is discarded (first completion wins), and the caller's merge layer
// re-validates the tiling regardless.
func Run(ctx context.Context, cfg Config) ([][]byte, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Resume == nil {
		shards := make([]harness.ShardSpec, cfg.Shards)
		for i := range shards {
			shards[i] = harness.ShardSpec{Index: i, Count: cfg.Shards}
		}
		return lease(ctx, cfg, shards)
	}
	spans, replayed, err := cfg.Resume.Payloads()
	if err != nil {
		return nil, err
	}
	if cfg.OnResult != nil {
		for i, payload := range replayed {
			if err := cfg.OnResult(spans[i], payload); err != nil {
				return nil, fmt.Errorf("coord: replayed span %s result sink: %w", spans[i], err)
			}
		}
	}
	shards := cfg.Resume.Spans(cfg.Shards)
	if len(shards) == 0 {
		return replayed, nil
	}
	fresh, err := lease(ctx, cfg, shards)
	if err != nil {
		return nil, err
	}
	// Interleave the replayed coverage with the leased gaps: both lists
	// ascend and never overlap.
	out := make([][]byte, 0, len(replayed)+len(fresh))
	i := 0
	for k, s := range shards {
		for ; i < len(spans) && spans[i].Lo < s.Lo; i++ {
			out = append(out, replayed[i])
		}
		out = append(out, fresh[k])
	}
	return append(out, replayed[i:]...), nil
}

// lease runs the fleet over shards and returns their payloads in shard
// order.
func lease(ctx context.Context, cfg Config, shards []harness.ShardSpec) ([][]byte, error) {
	var logMu sync.Mutex // serializes Log across the loop and worker goroutines
	logf := func(format string, args ...any) {
		if cfg.Log == nil {
			return
		}
		logMu.Lock()
		defer logMu.Unlock()
		cfg.Log(format, args...)
	}
	ctx, cancel := context.WithCancel(ctx)
	m := len(shards)

	assignCh := make(chan int)
	events := make(chan completion)
	expiries := make(chan int)
	retired := make(chan int)
	loopDone := make(chan struct{})

	chaos := int64(cfg.Chaos)
	var spawnSeq int64 // worker incarnations: a respawn is a new worker
	quarBase := cfg.Quarantine
	if quarBase < 0 {
		quarBase = 0
	}
	var wg sync.WaitGroup

	// shutdown stops the fleet: stray timers and posts unblock on
	// loopDone, in-flight attempts that honor ctx are cancelled (Proc
	// kills its process), and the assignment channel closing ends each
	// worker loop.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			close(loopDone)
			cancel()
			close(assignCh)
		})
	}
	defer func() {
		shutdown()
		wg.Wait()
	}()

	worker := func(id, wid int, w Worker) {
		defer wg.Done()
		defer func() { _ = w.Close() }()
		br := NewBreaker(quarBase)
		post := func(ev completion) {
			select {
			case events <- ev:
			case <-loopDone:
			}
		}
		first := true
		for shard := range assignCh {
			if first && atomic.AddInt64(&chaos, -1) >= 0 {
				logf("worker %d: chaos kill armed", id)
				w := w
				time.AfterFunc(chaosKillDelay, func() { _ = w.Close() })
			}
			first = false
			var payload []byte
			var err error
			if act := failpt.Eval(siteDispatch); act != nil {
				act.Sleep() // a stalled dispatch outlives its lease
				err = act.Err()
			}
			if err == nil {
				payload, err = w.Run(ctx, cfg.Spec, shards[shard])
			}
			post(completion{shard: shard, worker: wid, payload: payload, err: err})
			if err == nil {
				br.OK()
				continue
			}
			// An in-band shard error came from a live worker: keep
			// its warm state, retry elsewhere.
			var inBand *ShardError
			if errors.As(err, &inBand) {
				continue
			}
			// Otherwise the worker may be dead (a killed process);
			// replace it. At shutdown the error is just the
			// cancellation — don't spawn a process nobody will use.
			_ = w.Close()
			if ctx.Err() != nil {
				return
			}
			// A slot whose workers keep dying is quarantined before the
			// respawn — backoff with jitter instead of a hot respawn
			// loop against a persistent fault.
			if d := br.Fail(); d > 0 {
				logf("worker %d: quarantined for %v (health %.2f)", id, d.Round(time.Millisecond), br.Score())
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			nw, serr := cfg.Spawn(id)
			if serr != nil {
				logf("worker %d: respawn failed, retiring slot: %v", id, serr)
				select {
				case retired <- id:
				case <-loopDone:
				}
				return
			}
			wid = int(atomic.AddInt64(&spawnSeq, 1))
			logf("worker %d: respawned", id)
			w = nw
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		w, err := cfg.Spawn(i)
		if err != nil {
			return nil, fmt.Errorf("coord: spawning worker %d: %w", i, err)
		}
		wg.Add(1)
		go worker(i, int(atomic.AddInt64(&spawnSeq, 1)), w)
	}

	results := make([][]byte, m)
	done := make([]bool, m)
	queued := make([]bool, m)
	attempts := make([]int, m)
	inflight := make([]int, m)
	expired := make([]int, m) // leases expired per shard; expired == attempts ⇒ every attempt presumed lost
	failedBy := make([]map[int]struct{}, m)
	queue := make([]int, 0, m)
	for i := 0; i < m; i++ {
		queue = append(queue, i)
		queued[i] = true
	}
	remaining := m
	live := cfg.Workers

	for remaining > 0 {
		if live == 0 {
			return nil, fmt.Errorf("coord: all %d workers retired with %d of %d shards unfinished", cfg.Workers, remaining, m)
		}
		// A queued shard whose earlier attempt completed in the meantime
		// (a speculative requeue overtaken by its original) needs no
		// third run — drop it instead of burning a worker on it.
		for len(queue) > 0 && done[queue[0]] {
			queued[queue[0]] = false
			queue = queue[1:]
		}
		// Only arm the dispatch case while something is queued; a nil
		// channel send never fires.
		var sendCh chan int
		var next int
		if len(queue) > 0 {
			next = queue[0]
			sendCh = assignCh
		}
		select {
		case sendCh <- next:
			queue = queue[1:]
			queued[next] = false
			attempts[next]++
			inflight[next]++
			logf("shard %d/%d: attempt %d leased", next, m, attempts[next])
			if cfg.Lease > 0 {
				s := next
				time.AfterFunc(cfg.Lease, func() {
					select {
					case expiries <- s:
					case <-loopDone:
					}
				})
			}
		case s := <-expiries:
			if done[s] {
				break
			}
			expired[s]++
			if !queued[s] && attempts[s] < cfg.MaxAttempts {
				logf("shard %d/%d: lease expired after %v, reassigning straggler", s, m, cfg.Lease)
				queue = append(queue, s)
				queued[s] = true
				break
			}
			// Attempts exhausted and every one of them has now outlived
			// its lease: the shard is wedged, not merely slow — failing
			// loudly beats hanging the fleet forever. (An attempt that
			// errors instead of wedging aborts through the events case.)
			if attempts[s] >= cfg.MaxAttempts && expired[s] >= attempts[s] {
				return nil, fmt.Errorf("coord: shard %d/%d: all %d attempts exceeded their %v lease", s, m, attempts[s], cfg.Lease)
			}
		case <-retired:
			live--
		case ev := <-events:
			inflight[ev.shard]--
			// The completion-loss drill: a finished shard's result is
			// swallowed here, exactly as if the worker died between
			// computing it and delivering it — the retry path must
			// recover it or refuse by name.
			if ev.err == nil && !done[ev.shard] {
				if act := failpt.Eval(siteCompletion); act != nil && act.Kind == failpt.KindDrop {
					logf("shard %d/%d: completion dropped (failpoint %s)", ev.shard, m, siteCompletion)
					ev.err = fmt.Errorf("coord: shard %d completion lost (failpoint %s)", ev.shard, siteCompletion)
					ev.payload = nil
				}
			}
			switch {
			case ev.err != nil:
				if done[ev.shard] {
					break // a speculative sibling already finished it
				}
				logf("shard %d/%d: attempt failed: %v", ev.shard, m, ev.err)
				if failedBy[ev.shard] == nil {
					failedBy[ev.shard] = map[int]struct{}{}
				}
				failedBy[ev.shard][ev.worker] = struct{}{}
				// Poison check first: "failed K distinct workers" is the
				// sharper refusal than "attempts exhausted" when both hold.
				if len(failedBy[ev.shard]) >= cfg.PoisonK {
					return nil, &PoisonShardError{
						Shard: ev.shard, Of: m,
						Workers: len(failedBy[ev.shard]), Attempts: attempts[ev.shard],
						LastFailure: ev.err,
					}
				}
				if queued[ev.shard] || inflight[ev.shard] > 0 {
					break // a retry is already queued or running
				}
				if attempts[ev.shard] >= cfg.MaxAttempts {
					return nil, fmt.Errorf("coord: shard %d/%d failed after %d attempts: %w", ev.shard, m, attempts[ev.shard], ev.err)
				}
				queue = append(queue, ev.shard)
				queued[ev.shard] = true
			case done[ev.shard]:
				logf("shard %d/%d: duplicate completion discarded (first result won)", ev.shard, m)
			default:
				if err := deliver(cfg, shards[ev.shard], ev.payload); err != nil {
					return nil, fmt.Errorf("coord: shard %d/%d result sink: %w", ev.shard, m, err)
				}
				done[ev.shard] = true
				results[ev.shard] = ev.payload
				remaining--
				logf("shard %d/%d: complete, %d remaining", ev.shard, m, remaining)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return results, nil
}

// deliver makes a shard's first result durable through the Resume, when
// there is one, and then hands it to OnResult.
func deliver(cfg Config, shard harness.ShardSpec, payload []byte) error {
	if cfg.Resume != nil {
		if err := cfg.Resume.Append(payload); err != nil {
			return err
		}
	}
	if cfg.OnResult != nil {
		return cfg.OnResult(shard, payload)
	}
	return nil
}
