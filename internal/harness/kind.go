package harness

// The kind abstraction and the execution paths written once on top of
// it (see the package doc); resume.go holds the journaled ones.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// kind is one plan kind's pipeline. A value is bound to the plan its
// plan step laid out; every later step reads that plan.
type kind interface {
	// plan lays the normalized Spec's canonical trial plan out on r and
	// returns the plan's fingerprint and trial count.
	plan(r *Runner, spec Spec) (fingerprint string, trials int, err error)
	// exec runs trials [lo, hi) on r's worker pool in one call and
	// returns their rows as a partial with Lo and Hi set: on
	// cancellation the completed prefix, together with ctx's error. Each
	// trial reports its module to live once it finishes.
	exec(ctx context.Context, r *Runner, lo, hi int, live lastUse) (partial, error)
	// module names the module trial i executes, and whether it may leave
	// the cache after the run's last trial of it.
	module(i int) (moduleKey, bool)
	// aggregate folds non-overlapping parts into the kind's result in
	// canonical order; trials no part covers count as zero-valued
	// stand-ins.
	aggregate(parts []partial) any
	// render writes an aggregated result's summary block; how names the
	// execution in a campaign's header line.
	render(w io.Writer, agg any, how string)
	// decode reads one serialized partial of the kind.
	decode(r io.Reader) (partial, error)
}

// partial is the wire form of one plan range: a *PartialResult for
// campaign and concurrent plans, an *OverheadPartial for overhead plans.
type partial interface {
	// span returns the plan identity and range header.
	span() planSpan
	// stamp sets the header fields exec leaves to its caller.
	stamp(fingerprint string, shard ShardSpec, total int, elapsedMS int64)
	// check validates the partial's shape, independent of any plan.
	check() error
}

// planSpan is the plan-identity and range header every partial carries:
// which plan the shard was cut from, which contiguous trial range it
// covers, and how long it took.
type planSpan struct {
	shard       ShardSpec
	lo, hi      int
	total       int
	fingerprint string
	elapsedMS   int64
}

// check validates a partial's header against its row count. Decoded
// partials are checked before use so malformed input surfaces as an
// error, never a panic.
func (s planSpan) check(rows int) error {
	if s.lo < 0 || s.hi < s.lo || s.total < s.hi {
		return fmt.Errorf("harness: partial result: invalid trial range [%d, %d) of %d", s.lo, s.hi, s.total)
	}
	if rows != s.hi-s.lo {
		return fmt.Errorf("harness: partial result: %d rows for trial range [%d, %d)", rows, s.lo, s.hi)
	}
	if s.fingerprint == "" {
		return fmt.Errorf("harness: partial result: missing plan fingerprint")
	}
	return nil
}

// encodePartial writes a partial as one JSON line: the form shard
// files, fleet payloads and ShardPayload carry.
func encodePartial(w io.Writer, v any) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("harness: encoding partial result: %w", err)
	}
	return nil
}

// decodeChecked decodes one JSON partial into p and validates its
// shape. It never panics on malformed input.
func decodeChecked[P partial](r io.Reader, p P) (P, error) {
	var zero P
	if err := json.NewDecoder(r).Decode(p); err != nil {
		return zero, fmt.Errorf("harness: decoding partial result: %w", err)
	}
	if err := p.check(); err != nil {
		return zero, err
	}
	return p, nil
}

// MergedEvent is the ShardMerged event for one serialized partial of any
// kind, read from its envelope alone: no row is decoded, and a payload
// that is not a partial yields an event with an empty range. An
// experiment partial's range is the sum of its sub-plans' ranges, read
// from every list field of the ExperimentPartial, so a sub-plan kind
// added there is counted without naming it here.
func MergedEvent(shard ShardSpec, payload []byte) ShardMerged {
	type span struct {
		Lo        int   `json:"lo"`
		Hi        int   `json:"hi"`
		Total     int   `json:"total"`
		ElapsedMS int64 `json:"elapsedMS"`
	}
	var env span
	_ = json.Unmarshal(payload, &env)
	if env.Total == 0 {
		var fields map[string]json.RawMessage
		_ = json.Unmarshal(payload, &fields)
		for _, raw := range fields {
			var subs []span
			if json.Unmarshal(raw, &subs) != nil {
				continue // exp, shard: not a sub-plan list
			}
			for _, s := range subs {
				env.Lo += s.Lo
				env.Hi += s.Hi
				env.Total += s.Total
				env.ElapsedMS += s.ElapsedMS
			}
		}
	}
	return ShardMerged{Shard: shard, Lo: env.Lo, Hi: env.Hi, Total: env.Total,
		Elapsed: time.Duration(env.ElapsedMS) * time.Millisecond}
}

// widen returns a typed decode's partial as a partial — nil, not a nil
// pointer in an interface, when err is set.
func widen[P partial](p P, err error) (partial, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// asPartials widens a typed partial slice for the generic code.
func asPartials[P partial](ps []P) []partial {
	out := make([]partial, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// planned is a kind whose plan is laid out: the state every run,
// merge and resume starts from.
type planned struct {
	kind
	spec        Spec
	fingerprint string
	total       int
}

// plan normalizes spec, requires kind want unless want is empty, and
// lays the plan out on r; what names the caller in errors. The Spec's
// declarative fields are applied to r first, so the plan is a pure
// function of the Spec.
func (r *Runner) plan(spec Spec, want SpecKind, what string) (*planned, error) {
	n, err := spec.normalizedAs(want, what)
	if err != nil {
		return nil, err
	}
	k := n.kind()
	if k == nil {
		return nil, fmt.Errorf("harness: %s: %s specs run several plans; plan their campaigns/measurements individually", what, n.Kind)
	}
	r.applySpec(n)
	fp, total, err := k.plan(r, n)
	if err != nil {
		return nil, err
	}
	return &planned{kind: k, spec: n, fingerprint: fp, total: total}, nil
}

// run executes shard of the plan on r — the zero shard runs the whole
// plan as shard 0/1 — and returns its partial. live counts the run's
// pending trials per module; nil counts this shard's alone. Cancelling
// ctx drains in-flight trials and returns the completed-prefix partial
// (Hi trimmed to the last finished trial) together with ctx's error.
func (pl *planned) run(ctx context.Context, r *Runner, shard ShardSpec, live lastUse) (partial, error) {
	if shard.IsZero() {
		shard = ShardSpec{Index: 0, Count: 1}
	}
	if live == nil {
		live = pl.lastUse(shard)
	}
	lo, hi := shard.shardRange(pl.total)
	start := r.now()
	p, err := pl.exec(ctx, r, lo, hi, live)
	if err != nil && !cancelled(ctx, err) {
		return nil, err
	}
	p.stamp(pl.fingerprint, shard, pl.total, r.now().Sub(start).Milliseconds())
	return p, err
}

// lastUse counts the trials of every evictable module in shards.
func (pl *planned) lastUse(shards ...ShardSpec) lastUse {
	live := make(lastUse)
	for _, s := range shards {
		lo, hi := s.shardRange(pl.total)
		for i := lo; i < hi; i++ {
			if k, ok := pl.module(i); ok {
				if live[k] == nil {
					live[k] = new(int64)
				}
				*live[k]++
			}
		}
	}
	return live
}

// result aggregates parts over zero-valued stand-ins for the trials they
// leave uncovered: the whole result when they tile the plan, a
// structurally complete progressive view when they do not.
func (pl *planned) result(parts ...partial) Result {
	return Result{Spec: pl.spec, agg: pl.aggregate(parts)}
}

// merge reassembles the full result from the partials of a sharded run.
// Partials may arrive in any order, but they must have been cut from
// this plan (the fingerprint enforces it) and their ranges must tile it
// exactly: overlaps (a duplicated shard) and gaps (a missing shard) are
// rejected with the offending shard or trial range named; what names the
// calling merge in errors. One ShardMerged event is emitted per partial,
// in canonical range order.
func (pl *planned) merge(r *Runner, parts []partial, what string) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("harness: %s: no partial results", what)
	}
	spans := make([]planSpan, len(parts))
	for i, p := range parts {
		if err := p.check(); err != nil {
			return Result{}, err
		}
		s := p.span()
		if s.fingerprint != pl.fingerprint {
			return Result{}, fmt.Errorf("harness: %s: shard %s was cut from a different plan (fingerprint %.12s, want %.12s): spec, runs, or site enumeration differ",
				what, s.shard, s.fingerprint, pl.fingerprint)
		}
		if s.total != pl.total {
			return Result{}, fmt.Errorf("harness: %s: shard %s covers a %d-trial plan, this plan has %d trials", what, s.shard, s.total, pl.total)
		}
		spans[i] = s
	}
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].lo != spans[b].lo {
			return spans[a].lo < spans[b].lo
		}
		return spans[a].hi < spans[b].hi
	})
	next := 0
	for _, s := range spans {
		if s.lo < next {
			return Result{}, fmt.Errorf("harness: %s: shard %s overlaps already-merged trials [%d, %d): duplicate shard?", what, s.shard, s.lo, min(s.hi, next))
		}
		if s.lo > next {
			return Result{}, fmt.Errorf("harness: %s: missing trials [%d, %d): no shard covers them", what, next, s.lo)
		}
		next = s.hi
	}
	if next != pl.total {
		return Result{}, fmt.Errorf("harness: %s: missing trials [%d, %d): no shard covers them", what, next, pl.total)
	}
	for _, s := range spans {
		r.notify(ShardMerged{Shard: s.shard, Lo: s.lo, Hi: s.hi, Total: s.total,
			Elapsed: time.Duration(s.elapsedMS) * time.Millisecond})
	}
	return pl.result(parts...), nil
}

// runShard executes the Runner's shard of the Spec's plan.
func (r *Runner) runShard(ctx context.Context, spec Spec, want SpecKind, what string) (*planned, partial, error) {
	if err := r.validate(); err != nil {
		return nil, nil, err
	}
	pl, err := r.plan(spec, want, what)
	if err != nil {
		return nil, nil, err
	}
	p, err := pl.run(ctx, r, r.shard, nil)
	return pl, p, err
}

// runWhole executes the Spec's whole plan and aggregates it; a Runner
// with a proper shard is refused rather than silently truncated.
func (r *Runner) runWhole(ctx context.Context, spec Spec, want SpecKind, what string) (Result, error) {
	if r.shard.Validate() == nil && !r.shard.IsZero() && r.shard != (ShardSpec{Index: 0, Count: 1}) {
		return Result{}, fmt.Errorf("harness: %s with Shard %s: a shard covers only part of the plan; use %sPartial and merge the shards", what, r.shard, what)
	}
	pl, p, err := r.runShard(ctx, spec, want, what)
	if err != nil {
		return Result{}, err
	}
	return pl.result(p), nil
}

// mergeTyped is the merge behind the typed Merge* entry points.
func mergeTyped[P partial](r *Runner, spec Spec, want SpecKind, what string, parts []P) (Result, error) {
	pl, err := r.plan(spec, want, what)
	if err != nil {
		return Result{}, err
	}
	return pl.merge(r, asPartials(parts), what)
}

// PlanTrials reports the trial count of the Spec's canonical flat plan —
// the unit sharding and the coordinator schedule over. Campaign,
// overhead, and concurrent Specs all plan; experiment Specs run several
// plans and are refused.
func (r *Runner) PlanTrials(spec Spec) (int, error) {
	pl, err := r.plan(spec, "", "PlanTrials")
	if err != nil {
		return 0, err
	}
	return pl.total, nil
}

// MergePayloads decodes the serialized partials of a sharded run of the
// Spec's plan — shard files, fleet results, daemon payloads — and merges
// them into the Result an unsharded run computes, with the fingerprint
// and exact-tiling validation of the kind's Merge.
func (r *Runner) MergePayloads(spec Spec, payloads [][]byte) (Result, error) {
	pl, err := r.plan(spec, "", "MergePayloads")
	if err != nil {
		return Result{}, err
	}
	parts := make([]partial, len(payloads))
	for i, payload := range payloads {
		if parts[i], err = pl.decode(bytes.NewReader(payload)); err != nil {
			return Result{}, fmt.Errorf("harness: partial %d: %w", i, err)
		}
	}
	return pl.merge(r, parts, "MergePayloads")
}

// ShardPayload executes one shard of any Spec kind and returns its
// serialized partial — a PartialResult, OverheadPartial, or
// ExperimentPartial: the document the coordinator's protocol carries.
// It is the one worker-side entry point (`dpmr-exp -worker`, `dpmr-run
// -worker`, dpmrd), so a worker serves whatever Spec its assignment
// carries. A cancelled ctx fails the shard: the coordinator must retry
// it, not merge a prefix as if it covered the range.
func ShardPayload(ctx context.Context, spec Spec, shard ShardSpec, opts Options) ([]byte, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if n.kind() == nil {
		err = GenerateSharded(ctx, n, shard, &buf, opts)
	} else {
		opts.Shard = shard
		var p partial
		if _, p, err = opts.Apply().runShard(ctx, n, "", "ShardPayload"); err == nil {
			err = encodePartial(&buf, p)
		}
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Render writes the result's summary block — the report the CLIs print
// for a campaign or concurrent Spec — to w; how names the execution in
// a campaign's header line. Experiment results render nothing here:
// their report went to the session's report writer.
func (res Result) Render(w io.Writer, how string) {
	if k := res.Spec.kind(); k != nil && res.agg != nil {
		k.render(w, res.agg, how)
	}
}

// EncodePartial writes the result's partial — the shard a sharded
// session ran, or the completed prefix of a cancelled one — in the wire
// form ShardPayload returns, and reports the trial range [lo, hi) of the
// total-trial plan it covers.
func (res Result) EncodePartial(w io.Writer) (lo, hi, total int, err error) {
	if res.part == nil {
		return 0, 0, 0, fmt.Errorf("harness: %s result holds no partial", res.Spec.Kind)
	}
	s := res.part.span()
	return s.lo, s.hi, s.total, encodePartial(w, res.part)
}
