package harness

// Concurrent campaigns: multi-VM workloads under the deterministic
// interleaving scheduler (internal/sched), with the streaming consistency
// check (internal/consist) as an extra detection axis. The canonical
// flat trial plan — per concurrent workload, every variant, Runs runs,
// run rn exploring schedule SchedSeed+rn — is a pure function of the
// normalized concurrent Spec, exactly like campaign and overhead plans,
// so the generic code on the kind interface (kind.go) shards, merges,
// journals and resumes it: shards emit ordinary PartialResults and the
// merge reassembles a result byte-identical to an unsharded run.
//
// Concurrent trials always execute compiled code: each concurrent module
// is cached with a yielding program (interp.CompileYielding), whose
// loads, stores, atomics and fences call the scheduler's yield hook where
// the tree-walker would, and sched.Run drives every thread of a group on
// the trial's goroutine. A module that fails to compile fails its trials
// with the compile error. Options.Reference governs campaign and
// overhead trials only. The walker stays the oracle in sched's tests,
// which hold the compiled groups to walker groups result for result; the
// harness pins the report digests both engines produced.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"dpmr/internal/consist"
	"dpmr/internal/extlib"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
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

// concurrentKey is the cache key of (workload, variant) built for the
// given thread count. The thread count is folded in because
// Build(threads) bakes the worker count into the module.
func concurrentKey(w workloads.ConcurrentWorkload, v Variant, threads int) moduleKey {
	return moduleKey{workload: w.Name + "#t" + strconv.Itoa(threads), variant: v.Label()}
}

// concurrentModule returns the cached executable module of (workload,
// variant) built for the given thread count, and its yielding program.
func (r *Runner) concurrentModule(w workloads.ConcurrentWorkload, v Variant, threads int) (*ir.Module, *interp.Program, error) {
	return r.cache.get(concurrentKey(w, v, threads), func() (*ir.Module, *interp.Program, error) {
		m, err := v.transform(w.Build(threads))
		if err != nil {
			return nil, nil, err
		}
		m.Freeze()
		prog, err := interp.CompileYielding(m)
		if err != nil {
			return nil, nil, err
		}
		return m, prog, nil
	})
}

// runConcurrentGolden runs w's golden group into g, its memo entry, on
// the first call and returns the memoized outcome on every call. The
// golden group's stdapp module leaves the cache at once unless a trial
// in live still needs it.
func (r *Runner) runConcurrentGolden(g *goldenInfo, w workloads.ConcurrentWorkload, threads int, schedSeed int64, pool *mem.Pool, live lastUse) (*interp.Result, error) {
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
			VM:            interp.Config{Externs: extlib.Base(), Mem: r.memConfig, Prog: prog, SpacePool: pool},
		})
		live.release(r, concurrentKey(w, Stdapp(), threads))
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
func (r *Runner) runConcurrentOnce(t concurrentTrial, g *goldenInfo, threads int, schedSeed int64, pool *mem.Pool, live lastUse) (Outcome, error) {
	golden, err := r.runConcurrentGolden(g, t.w, threads, schedSeed, pool, live)
	if err != nil {
		return Outcome{}, err
	}
	m, prog, err := r.concurrentModule(t.w, t.v, threads)
	if err != nil {
		return Outcome{}, err
	}
	res := sched.Run(m, sched.Config{
		Threads: threads,
		Seed:    schedSeed + int64(t.rn),
		VM: interp.Config{
			Externs:   t.v.externs(),
			Mem:       r.memConfig,
			Seed:      int64(t.rn) + 1,
			StepLimit: stepBudget(golden.Steps, r.timeoutFactor), // group steps sum over threads
			Prog:      prog,
			SpacePool: pool,
		},
	})
	o := r.classify(golden, res.Combined)
	o.ConsistViol = !consist.Check(res.Trace).Clean()
	pool.PutTrace(res.Trace)
	return o, nil
}

// execConcurrentTrials runs the concurrent trials [lo, hi) and returns
// their classifications (see execRows); each module leaves the cache
// after its last trial in live. The space pool and each workload's
// golden memo entry are resolved once, up front, so trials take no
// Runner lock. Golden groups are memoized in the Runner's golden map
// under the thread count and schedule seed, so a memory-geometry change
// invalidates them exactly like sequential goldens.
func (r *Runner) execConcurrentTrials(ctx context.Context, plan *concurrentPlan, lo, hi int, live lastUse) ([]TrialOutcome, error) {
	pool := r.spaces()
	goldens := make(map[string]*goldenInfo, len(plan.workloads))
	for _, t := range plan.trials[lo:hi] {
		if goldens[t.w.Name] == nil {
			goldens[t.w.Name] = r.goldenEntry("concurrent:" + t.w.Name + ":t" + strconv.Itoa(plan.threads) + ":s" + strconv.FormatInt(plan.schedSeed, 10))
		}
	}
	return execRows(ctx, r, lo, hi, func(i int) (TrialOutcome, error) {
		t := plan.trials[i]
		o, err := r.runConcurrentOnce(t, goldens[t.w.Name], plan.threads, plan.schedSeed, pool, live)
		live.done(r, concurrentKey(t.w, t.v, plan.threads))
		return o.Trial(), err
	}, func(i int) string {
		t := plan.trials[i]
		return fmt.Sprintf("concurrent trial %d: %s %s run %d", i, t.v.Label(), t.w.Name, t.rn)
	})
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
// describes — every concurrent workload × variant × Runs scheduled group
// runs — with RunCampaign's determinism, cancellation, and shard
// refusal.
func (r *Runner) RunConcurrent(ctx context.Context, spec Spec) (*ConcurrentResult, error) {
	res, err := r.runWhole(ctx, spec, SpecConcurrent, "RunConcurrent")
	return res.concurrent(), err
}

// RunConcurrentPartial executes only the Runner's shard of the
// concurrent plan, with RunCampaignPartial's contract. Its partial is an
// ordinary PartialResult, so partial files, fleet payloads and journal
// records carry concurrent shards without a new wire shape.
func (r *Runner) RunConcurrentPartial(ctx context.Context, spec Spec) (*PartialResult, error) {
	_, p, err := r.runShard(ctx, spec, SpecConcurrent, "RunConcurrentPartial")
	q, _ := p.(*PartialResult)
	return q, err
}

// MergeConcurrent reassembles the ConcurrentResult of a sharded
// concurrent run, with MergeCampaign's validation and events.
func (r *Runner) MergeConcurrent(spec Spec, parts []*PartialResult) (*ConcurrentResult, error) {
	res, err := mergeTyped(r, spec, SpecConcurrent, "MergeConcurrent", parts)
	return res.concurrent(), err
}

// concurrentKind is the concurrent campaign's pipeline (see kind).
type concurrentKind struct{ p *concurrentPlan }

func (k *concurrentKind) plan(_ *Runner, spec Spec) (string, int, error) {
	p, err := planConcurrent(spec)
	if err != nil {
		return "", 0, err
	}
	k.p = p
	return p.fingerprint, len(p.trials), nil
}

func (k *concurrentKind) exec(ctx context.Context, r *Runner, lo, hi int, live lastUse) (partial, error) {
	outcomes, err := r.execConcurrentTrials(ctx, k.p, lo, hi, live)
	return &PartialResult{Lo: lo, Hi: lo + len(outcomes), Outcomes: outcomes}, err
}

func (k *concurrentKind) module(i int) (moduleKey, bool) {
	t := k.p.trials[i]
	return concurrentKey(t.w, t.v, k.p.threads), true
}

func (k *concurrentKind) aggregate(parts []partial) any {
	return aggregateConcurrent(k.p, outcomeRows(len(k.p.trials), parts))
}

func (k *concurrentKind) decode(r io.Reader) (partial, error) { return widen(DecodePartial(r)) }

func (k *concurrentKind) render(w io.Writer, agg any, _ string) {
	RenderConcurrent(w, agg.(*ConcurrentResult))
}
