package harness

// Shards and the outcome partial. A shard names a contiguous range of a
// plan's canonical trials; PartialResult carries the classifications of
// one range of a campaign or concurrent plan between processes.

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ShardSpec names one shard of a campaign, in one of two forms. The
// fractional form — Index of Count — cuts the plan uniformly: shard i of
// N covers trials [i·T/N, (i+1)·T/N). The explicit form — Lo/Hi set,
// Index and Count zero — covers exactly the trial range [Lo, Hi); it is
// how adaptively cut resume plans name their uneven spans (see
// Resume.Spans). The zero value means "the whole plan".
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo, Hi delimit an explicit trial range [Lo, Hi). When Hi > Lo the
	// spec is an explicit span and Index/Count must be zero.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
}

// SpanShard names the explicit trial range [lo, hi) as a shard.
func SpanShard(lo, hi int) ShardSpec { return ShardSpec{Lo: lo, Hi: hi} }

// IsZero reports whether the spec is the unsharded zero value.
func (s ShardSpec) IsZero() bool { return s == ShardSpec{} }

// Explicit reports whether the spec names an explicit [Lo, Hi) trial
// span — the form journaled resumes cut — rather than a fractional
// Index/Count cut.
func (s ShardSpec) Explicit() bool { return s.Lo != 0 || s.Hi != 0 }

// String renders the spec: the CLI's i/N form for fractional shards,
// [lo,hi) for explicit spans.
func (s ShardSpec) String() string {
	if s.Explicit() {
		return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi)
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Validate rejects fractional specs outside [0, Count), explicit spans
// with an empty or negative range, and mixtures of the two forms. The
// zero value is valid (unsharded).
func (s ShardSpec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if s.Explicit() {
		if s.Index != 0 || s.Count != 0 {
			return fmt.Errorf("harness: shard %s: explicit trial span cannot also set index/count %d/%d", s, s.Index, s.Count)
		}
		if s.Lo < 0 || s.Hi <= s.Lo {
			return fmt.Errorf("harness: shard: invalid explicit trial span [%d, %d)", s.Lo, s.Hi)
		}
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("harness: shard %s: count must be at least 1", s)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("harness: shard %s out of range: index must be in [0, %d)", s, s.Count)
	}
	return nil
}

// ParseShard parses the CLI "i/N" form into a validated ShardSpec.
func ParseShard(text string) (ShardSpec, error) {
	iText, nText, ok := strings.Cut(text, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: want i/N (e.g. 0/3)", text)
	}
	i, err := strconv.Atoi(strings.TrimSpace(iText))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: bad index: %v", text, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nText))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: bad count: %v", text, err)
	}
	s := ShardSpec{Index: i, Count: n}
	if n < 1 {
		return ShardSpec{}, fmt.Errorf("harness: shard %s: count must be at least 1", s)
	}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return s, nil
}

// PartialResult is one shard's output: the classifications of the
// contiguous trial range [Lo, Hi) of a campaign plan identified by
// Fingerprint. It is the serialization unit of sharded campaigns —
// JSON-encoded by the shard process, decoded and merged by the
// coordinator.
type PartialResult struct {
	// Fingerprint identifies the canonical plan this shard was cut from;
	// MergeCampaign refuses partials whose fingerprint differs from the
	// plan it recomputes locally.
	Fingerprint string    `json:"fingerprint"`
	Shard       ShardSpec `json:"shard"`
	// Lo, Hi delimit the shard's trial range [Lo, Hi) in the canonical
	// plan; Total is the plan's trial count.
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
	// Outcomes holds one entry per trial, Outcomes[k] classifying
	// canonical trial Lo+k.
	Outcomes []TrialOutcome `json:"outcomes"`
	// ElapsedMS is the shard's wall-clock execution time in milliseconds
	// — observed-cost metadata for the campaign journal and adaptive
	// shard sizing. It never participates in merging or fingerprints, so
	// merged reports stay byte-identical whatever the timings were.
	ElapsedMS int64 `json:"elapsedMS,omitempty"`
}

func (p *PartialResult) span() planSpan {
	return planSpan{shard: p.Shard, lo: p.Lo, hi: p.Hi, total: p.Total, fingerprint: p.Fingerprint, elapsedMS: p.ElapsedMS}
}

func (p *PartialResult) stamp(fingerprint string, shard ShardSpec, total int, elapsedMS int64) {
	p.Fingerprint, p.Shard, p.Total, p.ElapsedMS = fingerprint, shard, total, elapsedMS
}

func (p *PartialResult) check() error {
	if p == nil {
		return fmt.Errorf("harness: nil partial result")
	}
	return p.span().check(len(p.Outcomes))
}

// Encode writes the partial result as JSON.
func (p *PartialResult) Encode(w io.Writer) error { return encodePartial(w, p) }

// DecodePartial reads a JSON partial result and validates its shape. It
// never panics on malformed input.
func DecodePartial(r io.Reader) (*PartialResult, error) { return decodeChecked(r, new(PartialResult)) }

// outcomeRows reassembles the plan-wide outcome sequence of campaign and
// concurrent plans from parts; uncovered trials stay zero-valued.
func outcomeRows(total int, parts []partial) []TrialOutcome {
	outcomes := make([]TrialOutcome, total)
	for _, p := range parts {
		q := p.(*PartialResult)
		copy(outcomes[q.Lo:q.Hi], q.Outcomes)
	}
	return outcomes
}

// shardRange slices [0, total) into the spec's contiguous range.
// Fractional shards tile the plan exactly: shard i ends where shard i+1
// begins. Explicit spans cover their stated range, clamped to the plan.
func (s ShardSpec) shardRange(total int) (lo, hi int) {
	if s.Explicit() {
		lo, hi = s.Lo, s.Hi
		if hi > total {
			hi = total
		}
		if lo > hi {
			lo = hi
		}
		return lo, hi
	}
	return s.Index * total / s.Count, (s.Index + 1) * total / s.Count
}

// RunCampaignPartial executes only the Runner's shard of the campaign
// Spec's canonical trial plan (a zero Shard runs the whole plan as shard
// 0/1) and returns the indexed partial result. Cancelling ctx returns
// the completed-prefix partial together with ctx's error, so a
// cancelled run's finished work is never discarded.
func (r *Runner) RunCampaignPartial(ctx context.Context, spec Spec) (*PartialResult, error) {
	_, p, err := r.runShard(ctx, spec, SpecCampaign, "RunCampaignPartial")
	q, _ := p.(*PartialResult)
	return q, err
}

// MergeCampaign reassembles the CampaignResult of a sharded run,
// byte-identical to an unsharded run of the same Spec. The partials may
// arrive in any order but must tile the plan the Spec describes exactly:
// foreign fingerprints, duplicated and missing ranges are refused by
// name. One ShardMerged event is emitted per partial, in range order.
func (r *Runner) MergeCampaign(spec Spec, parts []*PartialResult) (*CampaignResult, error) {
	res, err := mergeTyped(r, spec, SpecCampaign, "MergeCampaign", parts)
	return res.Campaign(), err
}
