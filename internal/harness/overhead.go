package harness

// Overhead experiments (no injections): the canonical flat measurement
// plan — per workload, its golden (stdapp) run followed by one run per
// DPMR variant — is a pure function of the normalized overhead Spec, and
// its shards travel as OverheadPartials (cycle counts plus the plan
// fingerprint).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"dpmr/internal/extlib"
	"dpmr/internal/interp"
	"dpmr/internal/workloads"
)

// OverheadResult maps variant label → workload → overhead (×golden,
// Equation 3.1).
type OverheadResult struct {
	Workloads []string
	Variants  []Variant
	Ratio     map[string]map[string]float64
	// Cycles carries the raw per-variant cycles for benches.
	Cycles map[string]map[string]uint64
}

// overheadTrial is one measurement of an overhead plan: the golden
// (stdapp) run of a workload, or one DPMR variant run of it.
type overheadTrial struct {
	w workloads.Workload
	v Variant // v.DPMR == false ⇒ the workload's golden run
}

// key returns the module-cache key of the trial's uninjected build.
func (t overheadTrial) key() moduleKey { return trial{w: t.w, v: t.v}.key() }

// overheadPlan is the canonical flat measurement layout of an overhead
// experiment. Like campaignPlan it is a pure function of its normalized
// Spec, so contiguous index ranges are a host-independent sharding unit
// and the fingerprint lets MergeOverhead refuse partials cut from a
// different plan.
type overheadPlan struct {
	workloads   []string
	variants    []Variant
	trials      []overheadTrial
	goldenIdx   []int // per workload: index of its golden trial
	fingerprint string
}

// planOverhead lays the measurement grid out flat in canonical order
// from the normalized overhead Spec: for each workload, its golden run,
// then one trial per DPMR variant in variant order (non-DPMR variants
// reuse the golden measurement).
func planOverhead(spec Spec) (*overheadPlan, error) {
	ws, err := spec.resolveWorkloads()
	if err != nil {
		return nil, err
	}
	variants, err := spec.resolveVariants()
	if err != nil {
		return nil, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	p := &overheadPlan{variants: variants}
	h := sha256.New()
	fmt.Fprintf(h, "dpmr overhead plan v2\nspec %s\n", canon)
	for _, w := range ws {
		p.workloads = append(p.workloads, w.Name)
		p.goldenIdx = append(p.goldenIdx, len(p.trials))
		p.trials = append(p.trials, overheadTrial{w: w, v: Stdapp()})
		for _, v := range variants {
			if v.DPMR {
				p.trials = append(p.trials, overheadTrial{w: w, v: v})
			}
		}
	}
	fmt.Fprintf(h, "trials %d\n", len(p.trials))
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// execOverheadTrials measures the trials [lo, hi) and returns their
// cycle counts (see execRows); each DPMR module leaves the cache after
// its last trial in live. Golden measurements go through the Runner's
// memoized golden cache, so a workload's golden executes once no matter
// how many ratios (or shards on this Runner) need it.
func (r *Runner) execOverheadTrials(ctx context.Context, plan *overheadPlan, lo, hi int, live lastUse) ([]uint64, error) {
	pool := r.spaces()
	return execRows(ctx, r, lo, hi, func(i int) (uint64, error) {
		t := plan.trials[i]
		if !t.v.DPMR {
			g, err := r.Golden(t.w)
			if err != nil {
				return 0, err
			}
			return g.Cycles, nil
		}
		m, prog, err := r.module(t.w, t.v, nil)
		if err != nil {
			return 0, err
		}
		res := interp.Run(m, interp.Config{
			Externs:   extlib.Wrapped(t.v.Design),
			Mem:       r.memConfig,
			Seed:      1,
			Prog:      prog,
			SpacePool: pool,
		})
		live.done(r, t.key())
		if res.Kind != interp.ExitNormal {
			return 0, fmt.Errorf("%v (%s)", res.Kind, res.Reason)
		}
		return res.Cycles, nil
	}, func(i int) string {
		t := plan.trials[i]
		return fmt.Sprintf("overhead trial %d: %s/%s", i, t.w.Name, t.v.Label())
	})
}

// aggregateOverhead folds the full plan's cycle measurements into an
// OverheadResult in canonical order — identical iteration (and float
// division) whether the cycles came from one process or merged shards.
func aggregateOverhead(plan *overheadPlan, cycles []uint64) *OverheadResult {
	or := &OverheadResult{
		Workloads: plan.workloads,
		Variants:  plan.variants,
		Ratio:     make(map[string]map[string]float64),
		Cycles:    make(map[string]map[string]uint64),
	}
	for _, v := range plan.variants {
		or.Ratio[v.Label()] = make(map[string]float64)
		or.Cycles[v.Label()] = make(map[string]uint64)
	}
	for wi, wname := range plan.workloads {
		golden := cycles[plan.goldenIdx[wi]]
		ti := plan.goldenIdx[wi] + 1
		for _, v := range plan.variants {
			if !v.DPMR {
				or.Ratio[v.Label()][wname] = 1.0
				or.Cycles[v.Label()][wname] = golden
				continue
			}
			or.Ratio[v.Label()][wname] = float64(cycles[ti]) / float64(golden)
			or.Cycles[v.Label()][wname] = cycles[ti]
			ti++
		}
	}
	return or
}

// RunOverhead measures execution-time overhead for each variant of the
// overhead Spec on the worker pool, recorded in canonical grid order.
// Like RunCampaign it runs the whole plan: cancelling ctx returns ctx's
// error, and a Runner with a proper shard is refused — use
// RunOverheadPartial and MergeOverhead for sharded execution.
func (r *Runner) RunOverhead(ctx context.Context, spec Spec) (*OverheadResult, error) {
	res, err := r.runWhole(ctx, spec, SpecOverhead, "RunOverhead")
	return res.overhead(), err
}

// OverheadPartial is one shard's output of a sharded overhead
// experiment: the cycle measurements of the contiguous trial range
// [Lo, Hi) of an overhead plan identified by Fingerprint. It serializes
// exactly like PartialResult and merges with MergeOverhead.
type OverheadPartial struct {
	Fingerprint string    `json:"fingerprint"`
	Shard       ShardSpec `json:"shard"`
	Lo          int       `json:"lo"`
	Hi          int       `json:"hi"`
	Total       int       `json:"total"`
	// Cycles holds one entry per trial, Cycles[k] measuring canonical
	// trial Lo+k.
	Cycles []uint64 `json:"cycles"`
	// ElapsedMS is the shard's wall-clock execution time in milliseconds
	// (cost metadata only; merging ignores it).
	ElapsedMS int64 `json:"elapsedMS,omitempty"`
}

func (p *OverheadPartial) span() planSpan {
	return planSpan{shard: p.Shard, lo: p.Lo, hi: p.Hi, total: p.Total, fingerprint: p.Fingerprint, elapsedMS: p.ElapsedMS}
}

func (p *OverheadPartial) stamp(fingerprint string, shard ShardSpec, total int, elapsedMS int64) {
	p.Fingerprint, p.Shard, p.Total, p.ElapsedMS = fingerprint, shard, total, elapsedMS
}

func (p *OverheadPartial) check() error {
	if p == nil {
		return fmt.Errorf("harness: nil partial result")
	}
	return p.span().check(len(p.Cycles))
}

// Encode writes the partial result as JSON.
func (p *OverheadPartial) Encode(w io.Writer) error { return encodePartial(w, p) }

// DecodeOverheadPartial reads a JSON overhead partial and validates its
// shape. It never panics on malformed input.
func DecodeOverheadPartial(r io.Reader) (*OverheadPartial, error) {
	return decodeChecked(r, new(OverheadPartial))
}

// RunOverheadPartial measures only the Runner's shard of the overhead
// plan, with RunCampaignPartial's zero-shard and cancellation contract.
func (r *Runner) RunOverheadPartial(ctx context.Context, spec Spec) (*OverheadPartial, error) {
	_, p, err := r.runShard(ctx, spec, SpecOverhead, "RunOverheadPartial")
	q, _ := p.(*OverheadPartial)
	return q, err
}

// MergeOverhead reassembles the OverheadResult of a sharded overhead
// run, with MergeCampaign's validation and events.
func (r *Runner) MergeOverhead(spec Spec, parts []*OverheadPartial) (*OverheadResult, error) {
	res, err := mergeTyped(r, spec, SpecOverhead, "MergeOverhead", parts)
	return res.overhead(), err
}

// overheadKind is the overhead measurement's pipeline (see kind).
type overheadKind struct{ p *overheadPlan }

func (k *overheadKind) plan(_ *Runner, spec Spec) (string, int, error) {
	p, err := planOverhead(spec)
	if err != nil {
		return "", 0, err
	}
	k.p = p
	return p.fingerprint, len(p.trials), nil
}

func (k *overheadKind) exec(ctx context.Context, r *Runner, lo, hi int, live lastUse) (partial, error) {
	cycles, err := r.execOverheadTrials(ctx, k.p, lo, hi, live)
	return &OverheadPartial{Lo: lo, Hi: lo + len(cycles), Cycles: cycles}, err
}

// module names a DPMR trial's module; the golden trials run the base,
// which stays.
func (k *overheadKind) module(i int) (moduleKey, bool) {
	t := k.p.trials[i]
	return t.key(), t.v.DPMR
}

func (k *overheadKind) aggregate(parts []partial) any {
	cycles := make([]uint64, len(k.p.trials))
	for _, p := range parts {
		q := p.(*OverheadPartial)
		copy(cycles[q.Lo:q.Hi], q.Cycles)
	}
	return aggregateOverhead(k.p, cycles)
}

func (k *overheadKind) decode(r io.Reader) (partial, error) { return widen(DecodeOverheadPartial(r)) }

func (k *overheadKind) render(w io.Writer, agg any, _ string) {
	renderOverhead(w, agg.(*OverheadResult), Variant.Label)
}
