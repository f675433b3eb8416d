package harness

// Concurrent campaigns: multi-VM workloads under the deterministic
// interleaving scheduler (internal/sched), with the offline consistency
// checker (internal/consist) as an extra detection axis. The canonical
// flat trial plan — per concurrent workload, every variant, Runs runs,
// run rn exploring schedule SchedSeed+rn — is a pure function of the
// normalized concurrent Spec, exactly like campaign and overhead plans,
// so the whole shard/merge/journal/coordinator machinery applies
// unchanged: shards emit ordinary PartialResults and MergeConcurrent
// reassembles a result byte-identical to an unsharded run.
//
// Concurrent trials always execute compiled code: each concurrent module
// is cached with a yielding program (interp.CompileYielding), whose
// loads, stores, atomics and fences call the scheduler's yield hook where
// the tree-walker would, and sched.Run drives every thread of a group on
// the trial's goroutine. A module that fails to compile fails its trials
// with the compile error. Runner.Compile (WithReference, CLI
// -compile=false) governs campaign and overhead trials only. The walker
// stays the oracle in sched's tests, which hold the compiled groups to
// walker groups result for result; the harness pins the report digests
// both engines produced.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"time"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/failpt"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/journal"
	"dpmr/internal/mem"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

// concurrentTrial is one scheduled group run of a concurrent plan.
type concurrentTrial struct {
	w  workloads.ConcurrentWorkload
	v  Variant
	rn int // run number; the trial explores schedule SchedSeed+rn
}

// concurrentPlan is the canonical flat trial layout of a concurrent
// campaign. Like campaignPlan it is a pure function of its normalized
// Spec, so contiguous index ranges are a host-independent sharding unit
// and the fingerprint lets MergeConcurrent refuse partials cut from a
// different plan.
type concurrentPlan struct {
	workloads   []string
	variants    []Variant
	threads     int
	schedSeed   int64
	runs        int
	trials      []concurrentTrial
	fingerprint string
}

// planConcurrent lays the (workload, variant, run) grid out flat in
// canonical order from the normalized concurrent Spec. Unlike campaign
// plans, stdapp rows get their own trials: with no injection the
// interesting axis is the schedule, and every variant — stdapp included
// — runs each of the Runs schedules.
func planConcurrent(spec Spec) (*concurrentPlan, error) {
	variants, err := spec.resolveVariants()
	if err != nil {
		return nil, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	p := &concurrentPlan{
		variants:  variants,
		threads:   spec.Threads,
		schedSeed: spec.SchedSeed,
		runs:      spec.Runs,
	}
	h := sha256.New()
	fmt.Fprintf(h, "dpmr concurrent plan v1\nspec %s\n", canon)
	for _, name := range spec.Workloads {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			return nil, err
		}
		p.workloads = append(p.workloads, w.Name)
		fmt.Fprintf(h, "workload %s\n", w.Name)
		for _, v := range variants {
			for rn := 0; rn < spec.Runs; rn++ {
				p.trials = append(p.trials, concurrentTrial{w: w, v: v, rn: rn})
			}
		}
	}
	fmt.Fprintf(h, "trials %d\n", len(p.trials))
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// concurrentModule returns the cached executable module of (workload,
// variant) built for the given thread count, and its yielding program.
// The thread count is folded into the cache key because Build(threads)
// bakes the worker count into the module.
func (r *Runner) concurrentModule(w workloads.ConcurrentWorkload, v Variant, threads int) (*ir.Module, *interp.Program, error) {
	key := moduleKey{workload: w.Name + "#t" + strconv.Itoa(threads), variant: v.Label()}
	return r.cache.get(key, func() (*ir.Module, *interp.Program, error) {
		m := w.Build(threads)
		if v.DPMR {
			xm, err := dpmr.Transform(m, dpmr.Config{
				Design:    v.Design,
				Diversity: v.Diversity,
				Policy:    v.Policy,
				Seed:      transformSeed,
			})
			if err != nil {
				return nil, nil, err
			}
			m = xm
		}
		m.Freeze()
		prog, err := interp.CompileYielding(m)
		if err != nil {
			return nil, nil, err
		}
		return m, prog, nil
	})
}

// concurrentGolden returns the memo entry of w's fault-free stdapp group
// under the base schedule seed; runConcurrentGolden fills it. The memo
// key includes the thread count and schedule seed, and the memo is the
// Runner's golden map, so a memory-geometry change invalidates concurrent
// goldens exactly like sequential ones (applySpec drops the map).
func (r *Runner) concurrentGolden(w workloads.ConcurrentWorkload, threads int, schedSeed int64) *goldenInfo {
	key := "concurrent:" + w.Name + ":t" + strconv.Itoa(threads) + ":s" + strconv.FormatInt(schedSeed, 10)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.golden[key]
	if !ok {
		g = &goldenInfo{}
		r.golden[key] = g
	}
	return g
}

// runConcurrentGolden runs w's golden group into g, its memo entry, on
// the first call and returns the memoized outcome on every call.
func (r *Runner) runConcurrentGolden(g *goldenInfo, w workloads.ConcurrentWorkload, threads int, schedSeed int64, pool *mem.Pool) (*interp.Result, error) {
	g.once.Do(func() {
		m, prog, err := r.concurrentModule(w, Stdapp(), threads)
		if err != nil {
			g.err = err
			return
		}
		res := sched.Run(m, sched.Config{
			Threads:       threads,
			Seed:          schedSeed,
			TraceDisabled: true,
			VM:            interp.Config{Externs: extlib.Base(), Mem: r.MemConfig, Prog: prog, SpacePool: pool},
		})
		c := res.Combined
		if c.Kind != interp.ExitNormal || c.Code != 0 {
			g.err = fmt.Errorf("harness: concurrent golden %s (%d threads, schedule %d) failed: %v code %d (%s)",
				w.Name, threads, schedSeed, c.Kind, c.Code, c.Reason)
			return
		}
		g.res = c
	})
	return g.res, g.err
}

// runConcurrentOnce executes one concurrent trial: the workload's group
// under schedule SchedSeed+rn, classified against the golden group (g,
// its memo entry) plus the consistency checker's verdict over the
// recorded trace. The shared space and the trace recorder come from
// pool, and both go back to it.
func (r *Runner) runConcurrentOnce(t concurrentTrial, g *goldenInfo, threads int, schedSeed int64, pool *mem.Pool) (Outcome, error) {
	golden, err := r.runConcurrentGolden(g, t.w, threads, schedSeed, pool)
	if err != nil {
		return Outcome{}, err
	}
	m, prog, err := r.concurrentModule(t.w, t.v, threads)
	if err != nil {
		return Outcome{}, err
	}
	externs := extlib.Base()
	if t.v.DPMR {
		externs = extlib.Wrapped(t.v.Design)
	}
	res := sched.Run(m, sched.Config{
		Threads: threads,
		Seed:    schedSeed + int64(t.rn),
		VM: interp.Config{
			Externs:   externs,
			Mem:       r.MemConfig,
			Seed:      int64(t.rn) + 1,
			StepLimit: golden.Steps * r.TimeoutFactor * 5, // group steps sum over threads
			Prog:      prog,
			SpacePool: pool,
		},
	})
	o := r.classify(golden, res.Combined)
	o.ConsistViol = !consist.Check(res.Trace).Clean()
	pool.PutTrace(res.Trace)
	return o, nil
}

// execConcurrentTrials runs plan.trials[lo:hi] on the worker pool and
// returns their classifications, with the same completed-prefix
// cancellation contract as execTrials. The space pool and each
// workload's golden memo entry are resolved once, up front, so trials
// take no Runner lock.
func (r *Runner) execConcurrentTrials(ctx context.Context, plan *concurrentPlan, lo, hi int) ([]TrialOutcome, error) {
	pool := r.spaces()
	goldens := make(map[string]*goldenInfo, len(plan.workloads))
	for _, t := range plan.trials[lo:hi] {
		if goldens[t.w.Name] == nil {
			goldens[t.w.Name] = r.concurrentGolden(t.w, plan.threads, plan.schedSeed)
		}
	}
	outcomes := make([]TrialOutcome, hi-lo)
	errs := make([]error, hi-lo)
	done := r.fanOut(ctx, hi-lo, func(i int) {
		t := plan.trials[lo+i]
		o, err := r.runConcurrentOnce(t, goldens[t.w.Name], plan.threads, plan.schedSeed, pool)
		if err != nil {
			errs[i] = err
			return
		}
		outcomes[i] = o.Trial()
	})
	for i := 0; i < done; i++ {
		if err := errs[i]; err != nil {
			t := plan.trials[lo+i]
			return nil, fmt.Errorf("concurrent trial %d: %s %s run %d: %w", lo+i, t.v.Label(), t.w.Name, t.rn, err)
		}
	}
	if done < hi-lo {
		return outcomes[:done], context.Cause(ctx)
	}
	return outcomes, nil
}

// ---------------------------------------------------------------------------
// Aggregation

// ConcurrentCell aggregates one (workload, variant) pair of a concurrent
// campaign: fractions of all trials (there is no injection, so unlike
// CoverageCell nothing conditions on SF). CO/NatDet/DpmrDet follow the
// §3.6 priority; ConsistViol is the independent trace-checker axis and
// can overlap any of them — a consistency violation under literal
// correct output is precisely the silent failure the checker exists to
// surface.
type ConcurrentCell struct {
	N           int     // trials observed
	CO          float64 // correct output
	NatDet      float64 // natural detection (and not CO)
	DpmrDet     float64 // DPMR detection (and not CO)
	ConsistViol float64 // trace checker flagged the trial (any class)
}

func (c *ConcurrentCell) add(o TrialOutcome) {
	c.N++
	switch {
	case o.CO:
		c.CO++
	case o.DpmrDet:
		c.DpmrDet++
	case o.NatDet:
		c.NatDet++
	}
	if o.ConsistViol {
		c.ConsistViol++
	}
}

func (c *ConcurrentCell) finalize() {
	if c.N > 0 {
		c.CO /= float64(c.N)
		c.NatDet /= float64(c.N)
		c.DpmrDet /= float64(c.N)
		c.ConsistViol /= float64(c.N)
	}
}

// ConcurrentResult holds per-(workload, variant) outcome fractions of a
// concurrent campaign.
type ConcurrentResult struct {
	Workloads []string
	Variants  []Variant
	Threads   int
	SchedSeed int64
	Cells     map[string]map[string]*ConcurrentCell // variant label → workload → cell
}

// Cell retrieves one aggregation cell.
func (cr *ConcurrentResult) Cell(variant Variant, workload string) *ConcurrentCell {
	return cr.Cells[variant.Label()][workload]
}

// aggregateConcurrent folds the full plan's trial outcomes into a
// ConcurrentResult in canonical order — identical iteration whether the
// outcomes came from one process or merged shards.
func aggregateConcurrent(plan *concurrentPlan, outcomes []TrialOutcome) *ConcurrentResult {
	cr := &ConcurrentResult{
		Workloads: plan.workloads,
		Variants:  plan.variants,
		Threads:   plan.threads,
		SchedSeed: plan.schedSeed,
		Cells:     make(map[string]map[string]*ConcurrentCell),
	}
	for _, v := range plan.variants {
		cr.Cells[v.Label()] = make(map[string]*ConcurrentCell)
		for _, wname := range plan.workloads {
			cr.Cells[v.Label()][wname] = &ConcurrentCell{}
		}
	}
	for i, t := range plan.trials {
		cr.Cells[t.v.Label()][t.w.Name].add(outcomes[i])
	}
	for _, byW := range cr.Cells {
		for _, c := range byW {
			c.finalize()
		}
	}
	return cr
}

// RenderConcurrent writes the concurrent campaign summary — the report
// block the CLI, merge path, and CI drills all share, so the
// consistency-violation column renders identically everywhere.
func RenderConcurrent(w io.Writer, cr *ConcurrentResult) {
	fmt.Fprintf(w, "concurrent campaign: %d threads, schedule seed %d\n", cr.Threads, cr.SchedSeed)
	fmt.Fprintf(w, "%-28s %-8s %6s %8s %8s %8s %12s\n",
		"variant", "workload", "n", "CO", "NatDet", "DpmrDet", "ConsistViol")
	for _, v := range cr.Variants {
		for _, wname := range cr.Workloads {
			c := cr.Cells[v.Label()][wname]
			fmt.Fprintf(w, "%-28s %-8s %6d %8.2f %8.2f %8.2f %12.2f\n",
				v.Label(), wname, c.N, c.CO, c.NatDet, c.DpmrDet, c.ConsistViol)
		}
	}
}

// ---------------------------------------------------------------------------
// Entry points

// RunConcurrent executes the full concurrent campaign the Spec
// describes: every concurrent workload × every variant × Runs scheduled
// group runs. Like RunCampaign, trials execute on the worker pool and
// outcomes aggregate in canonical order, so the result is byte-identical
// at every worker count; a Runner configured with a proper shard is
// refused — use RunConcurrentPartial and MergeConcurrent.
func (r *Runner) RunConcurrent(ctx context.Context, spec Spec) (*ConcurrentResult, error) {
	spec, err := spec.normalizedAs(SpecConcurrent, "RunConcurrent")
	if err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	if !r.Shard.IsZero() && r.Shard != (ShardSpec{Index: 0, Count: 1}) {
		return nil, fmt.Errorf("harness: RunConcurrent with Shard %s: a shard covers only part of the plan; use RunConcurrentPartial and MergeConcurrent", r.Shard)
	}
	r.applySpec(spec)
	plan, err := planConcurrent(spec)
	if err != nil {
		return nil, err
	}
	outcomes, err := r.execConcurrentTrials(ctx, plan, 0, len(plan.trials))
	if err != nil {
		return nil, err
	}
	return aggregateConcurrent(plan, outcomes), nil
}

// RunConcurrentPartial executes only the Runner's shard of the
// concurrent plan and returns the indexed partial result — an ordinary
// PartialResult, so the coordinator protocol, journal records, and
// partial files carry concurrent shards without a new wire shape. A zero
// Shard runs the whole plan as shard 0/1; combine shards with
// MergeConcurrent. Cancellation returns the completed-prefix partial
// together with ctx's error.
func (r *Runner) RunConcurrentPartial(ctx context.Context, spec Spec) (*PartialResult, error) {
	p, _, err := r.runConcurrentPartial(ctx, spec)
	return p, err
}

// runConcurrentPartial also exposes the plan, for Session and the
// journaled driver.
func (r *Runner) runConcurrentPartial(ctx context.Context, spec Spec) (*PartialResult, *concurrentPlan, error) {
	spec, err := spec.normalizedAs(SpecConcurrent, "RunConcurrentPartial")
	if err != nil {
		return nil, nil, err
	}
	if err := r.validate(); err != nil {
		return nil, nil, err
	}
	shard := r.Shard
	if shard.IsZero() {
		shard = ShardSpec{Index: 0, Count: 1}
	}
	r.applySpec(spec)
	plan, err := planConcurrent(spec)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := shard.shardRange(len(plan.trials))
	start := time.Now()
	outcomes, err := r.execConcurrentTrials(ctx, plan, lo, hi)
	if err != nil && !cancelled(ctx, err) {
		return nil, nil, err
	}
	return &PartialResult{
		Fingerprint: plan.fingerprint,
		Shard:       shard,
		Lo:          lo,
		Hi:          lo + len(outcomes),
		Total:       len(plan.trials),
		Outcomes:    outcomes,
		ElapsedMS:   time.Since(start).Milliseconds(),
	}, plan, err
}

// MergeConcurrent reassembles a full ConcurrentResult from the partial
// results of a sharded concurrent run, with the same fingerprint and
// exact-tiling validation as MergeCampaign. The merged result is
// byte-identical to an unsharded RunConcurrent of the same Spec; one
// ShardMerged event is emitted per partial, in canonical range order.
func (r *Runner) MergeConcurrent(spec Spec, parts []*PartialResult) (*ConcurrentResult, error) {
	spec, err := spec.normalizedAs(SpecConcurrent, "MergeConcurrent")
	if err != nil {
		return nil, err
	}
	r.applySpec(spec)
	plan, err := planConcurrent(spec)
	if err != nil {
		return nil, err
	}
	total := len(plan.trials)
	spans := make([]planSpan, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("harness: MergeConcurrent: nil partial result")
		}
		if err := p.check(); err != nil {
			return nil, err
		}
		spans[i] = planSpan{shard: p.Shard, lo: p.Lo, hi: p.Hi, total: p.Total, fingerprint: p.Fingerprint}
	}
	order, err := tileSpans("MergeConcurrent", plan.fingerprint, total, spans)
	if err != nil {
		return nil, err
	}
	outcomes := make([]TrialOutcome, total)
	for _, i := range order {
		copy(outcomes[parts[i].Lo:parts[i].Hi], parts[i].Outcomes)
		r.notify(ShardMerged{Shard: parts[i].Shard, Lo: parts[i].Lo, Hi: parts[i].Hi, Total: parts[i].Total,
			Elapsed: time.Duration(parts[i].ElapsedMS) * time.Millisecond})
	}
	return aggregateConcurrent(plan, outcomes), nil
}

// ---------------------------------------------------------------------------
// Journaled execution: the concurrent kind rides the campaign journal
// machinery (resume.go) unchanged — concurrent shards are ordinary
// PartialResults, so record decoding, gap computation, and adaptive span
// cutting are shared; only the plan and merge are kind-specific.

// ResumeConcurrent recomputes the concurrent Spec's canonical plan and
// diffs it against the journal replay, exactly like ResumeCampaign.
func (r *Runner) ResumeConcurrent(spec Spec, rp *journal.Replay) (*CampaignResume, error) {
	spec, err := spec.normalizedAs(SpecConcurrent, "ResumeConcurrent")
	if err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	r.applySpec(spec)
	plan, err := planConcurrent(spec)
	if err != nil {
		return nil, err
	}
	c := &CampaignResume{spec: spec, cplan: plan, PlanFP: plan.fingerprint, Total: len(plan.trials)}
	if rp != nil {
		for _, rec := range rp.Plan(plan.fingerprint) {
			p, err := decodeJournaledPartial(rec, plan.fingerprint, len(plan.trials))
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, p)
		}
	}
	c.Gaps, err = rangeGaps(c.Parts, len(plan.trials))
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SnapshotConcurrent aggregates the given parts over zero-valued
// stand-ins for the uncovered trials — the progressive mid-campaign view
// of a journaled or coordinated concurrent run, the concurrent analogue
// of Snapshot. It requires a resume built by ResumeConcurrent.
func (c *CampaignResume) SnapshotConcurrent(parts []*PartialResult) *ConcurrentResult {
	outcomes := make([]TrialOutcome, c.Total)
	for _, p := range parts {
		copy(outcomes[p.Lo:p.Hi], p.Outcomes)
	}
	return aggregateConcurrent(c.cplan, outcomes)
}

// RunConcurrentJournaled executes a concurrent campaign against a
// journal: replayed coverage is kept, the remaining gaps run as
// adaptively cut spans, each completed span is appended durably before
// the next starts, and the full set merges into a final result
// byte-identical to an uninterrupted RunConcurrent. The returned int
// counts trials executed by this call (excluding replayed coverage).
// snap, when non-nil, receives a structurally complete progressive
// result after every durable span, exactly like RunCampaignJournaled.
func (r *Runner) RunConcurrentJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	snap func(cr *ConcurrentResult, done, total int)) (*ConcurrentResult, int, error) {
	c, err := r.ResumeConcurrent(spec, prior)
	if err != nil {
		return nil, 0, err
	}
	parts := c.Parts
	executed := 0
	for _, span := range c.Spans(spans) {
		if err := failpt.Err(siteSpan); err != nil {
			return nil, executed, err
		}
		saved := r.Shard
		r.Shard = span
		p, _, err := r.runConcurrentPartial(ctx, c.spec)
		r.Shard = saved
		if err != nil && (p == nil || !cancelled(ctx, err)) {
			return nil, executed, err
		}
		if p.Hi > p.Lo {
			if aerr := appendCampaignPartial(j, p); aerr != nil {
				return nil, executed, aerr
			}
			executed += p.Hi - p.Lo
			parts = append(parts, p)
			if snap != nil {
				done := 0
				for _, q := range parts {
					done += q.Hi - q.Lo
				}
				snap(c.SnapshotConcurrent(parts), done, c.Total)
			}
		}
		if err != nil {
			return nil, executed, err
		}
	}
	merged, err := r.MergeConcurrent(c.spec, parts)
	if err != nil {
		return nil, executed, err
	}
	return merged, executed, nil
}
