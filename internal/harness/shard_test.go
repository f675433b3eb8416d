package harness

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// runShards executes the small campaign as n shards (each on its own
// Runner, as separate processes would) and returns the partials in shard
// order, JSON round-tripped through Encode/DecodePartial so the tests
// exercise exactly the bytes a sharded deployment ships.
func runShards(t *testing.T, n int) []*PartialResult {
	t.Helper()
	parts := make([]*PartialResult, n)
	for i := 0; i < n; i++ {
		r := NewRunner()
		r.parallel = 2
		r.shard = ShardSpec{Index: i, Count: n}
		p, err := r.RunCampaignPartial(context.Background(), smallCampaign())
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatalf("shard %d/%d: encode: %v", i, n, err)
		}
		rp, err := DecodePartial(&buf)
		if err != nil {
			t.Fatalf("shard %d/%d: decode: %v", i, n, err)
		}
		parts[i] = rp
	}
	return parts
}

func mergeShards(t *testing.T, parts []*PartialResult) *CampaignResult {
	t.Helper()
	r := NewRunner()
	cr, err := r.MergeCampaign(smallCampaign(), parts)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func renderedReport(t *testing.T, cr *CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	renderCoverage(&buf, cr, labelDiversity)
	renderConditional(&buf, cr, labelDiversity)
	return buf.Bytes()
}

// TestShardMergeByteIdentical is the sharding contract: for several
// shard counts, merging the shards' partial results reconstructs a
// CampaignResult — and rendered report bytes — identical to an unsharded
// run, with the shards merged out of order.
func TestShardMergeByteIdentical(t *testing.T) {
	golden, _ := campaignAt(t, 4)
	goldenBytes := renderedReport(t, golden)
	for _, n := range []int{1, 2, 3, 7} {
		parts := runShards(t, n)
		// Adversarial merge order: reversed, then middle-out rotation.
		orders := [][]*PartialResult{parts, reversed(parts), rotated(parts, n/2)}
		for oi, order := range orders {
			cr := mergeShards(t, order)
			if !reflect.DeepEqual(golden.Cells, cr.Cells) {
				t.Errorf("n=%d order=%d: merged cells differ from unsharded", n, oi)
			}
			if !reflect.DeepEqual(golden.Conditional, cr.Conditional) {
				t.Errorf("n=%d order=%d: merged conditional cells differ from unsharded", n, oi)
			}
			if got := renderedReport(t, cr); !bytes.Equal(goldenBytes, got) {
				t.Errorf("n=%d order=%d: merged report bytes differ:\n--- unsharded ---\n%s\n--- merged ---\n%s",
					n, oi, goldenBytes, got)
			}
		}
	}
}

func reversed(parts []*PartialResult) []*PartialResult {
	out := make([]*PartialResult, len(parts))
	for i, p := range parts {
		out[len(parts)-1-i] = p
	}
	return out
}

func rotated(parts []*PartialResult, by int) []*PartialResult {
	out := make([]*PartialResult, 0, len(parts))
	out = append(out, parts[by:]...)
	return append(out, parts[:by]...)
}

// TestShardRangesTileThePlan asserts the host-independent slicing: the
// shards' [Lo, Hi) ranges are contiguous, exhaustive, and sized within
// one trial of each other.
func TestShardRangesTileThePlan(t *testing.T) {
	parts := runShards(t, 7)
	next := 0
	total := parts[0].Total
	for i, p := range parts {
		if p.Lo != next {
			t.Errorf("shard %d starts at %d, want %d", i, p.Lo, next)
		}
		if size := p.Hi - p.Lo; size < total/7 || size > total/7+1 {
			t.Errorf("shard %d has %d trials, want %d or %d", i, size, total/7, total/7+1)
		}
		next = p.Hi
	}
	if next != total {
		t.Errorf("shards cover [0, %d), plan has %d trials", next, total)
	}
}

// TestMergeRejectsDuplicateShard: merging the same shard twice must fail
// with the overlap named, not double-count trials.
func TestMergeRejectsDuplicateShard(t *testing.T) {
	parts := runShards(t, 3)
	r := NewRunner()
	_, err := r.MergeCampaign(smallCampaign(), []*PartialResult{parts[0], parts[1], parts[1], parts[2]})
	if err == nil {
		t.Fatal("duplicated shard accepted")
	}
	if !strings.Contains(err.Error(), "overlaps") || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-shard error does not name the overlap: %v", err)
	}
}

// TestMergeRejectsMissingShard: a gap must be rejected with the missing
// trial range named.
func TestMergeRejectsMissingShard(t *testing.T) {
	parts := runShards(t, 3)
	r := NewRunner()
	_, err := r.MergeCampaign(smallCampaign(), []*PartialResult{parts[0], parts[2]})
	if err == nil {
		t.Fatal("missing shard accepted")
	}
	want := "missing trials [" + strconv.Itoa(parts[1].Lo) + ", " + strconv.Itoa(parts[1].Hi) + ")"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("missing-shard error %q does not name the range %q", err, want)
	}
	// Missing tail shard.
	_, err = r.MergeCampaign(smallCampaign(), []*PartialResult{parts[0], parts[1]})
	if err == nil || !strings.Contains(err.Error(), "missing trials") {
		t.Errorf("missing tail shard not rejected with a named range: %v", err)
	}
}

// TestMergeRejectsForeignPlan: partial results from a different plan
// (here: a Spec with different Runs) must be refused by fingerprint.
func TestMergeRejectsForeignPlan(t *testing.T) {
	parts := runShards(t, 2) // Runs = 2 (the normalized default)
	r := NewRunner()
	foreign := smallCampaign()
	foreign.Runs = 1 // different plan
	if _, err := r.MergeCampaign(foreign, parts); err == nil {
		t.Fatal("partials from a different plan accepted")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign-plan error does not mention the fingerprint: %v", err)
	}
	// Corrupted fingerprint on one shard.
	parts[1].Fingerprint = "deadbeef"
	r2 := NewRunner()
	if _, err := r2.MergeCampaign(smallCampaign(), parts); err == nil {
		t.Fatal("corrupted fingerprint accepted")
	}
}

// TestDecodePartialRejectsMalformed covers the decoder's shape checks.
func TestDecodePartialRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"negative lo":     `{"fingerprint":"f","lo":-1,"hi":0,"total":4,"outcomes":[{}]}`,
		"hi before lo":    `{"fingerprint":"f","lo":3,"hi":1,"total":4,"outcomes":[]}`,
		"hi past total":   `{"fingerprint":"f","lo":0,"hi":9,"total":4,"outcomes":[{},{},{},{},{},{},{},{},{}]}`,
		"length mismatch": `{"fingerprint":"f","lo":0,"hi":2,"total":4,"outcomes":[{}]}`,
		"no fingerprint":  `{"lo":0,"hi":1,"total":4,"outcomes":[{}]}`,
	}
	for name, text := range cases {
		if _, err := DecodePartial(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGenerateShardedMergedByteIdentical drives the dpmr-exp path: the
// full experiment generator run as shards, merged, against the bytes an
// unsharded Generate writes.
func TestGenerateShardedMergedByteIdentical(t *testing.T) {
	ctx := context.Background()
	spec := quickExp("fig3.7")
	opts := Options{Parallel: 2}
	var golden bytes.Buffer
	if err := Generate(ctx, spec, &golden, opts); err != nil {
		t.Fatal(err)
	}
	const n = 3
	files := make([]bytes.Buffer, n)
	for i := 0; i < n; i++ {
		if err := GenerateSharded(ctx, spec, ShardSpec{Index: i, Count: n}, &files[i], opts); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	// Merge out of order; the id is taken from the partials.
	var merged bytes.Buffer
	readers := []io.Reader{&files[2], &files[0], &files[1]}
	idless := spec
	idless.Exp = ""
	if err := GenerateMerged(ctx, idless, &merged, readers, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Bytes(), merged.Bytes()) {
		t.Errorf("merged fig3.7 differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			golden.String(), merged.String())
	}
}

// TestRunnerValidation is the table-driven Runner.RunCampaign /
// RunCampaignPartial / RunOverhead validation contract: out-of-range
// shards and non-positive worker counts error instead of silently
// truncating or serializing.
func TestRunnerValidation(t *testing.T) {
	cases := []struct {
		name     string
		parallel int
		shard    ShardSpec
		wantErr  string
	}{
		{"zero workers", 0, ShardSpec{}, "at least 1 worker"},
		{"negative workers", -3, ShardSpec{}, "at least 1 worker"},
		{"shard index past count", 1, ShardSpec{Index: 3, Count: 3}, "out of range"},
		{"negative shard index", 1, ShardSpec{Index: -1, Count: 3}, "out of range"},
		{"zero count with index", 1, ShardSpec{Index: 2, Count: 0}, "count must be at least 1"},
		{"negative count", 1, ShardSpec{Index: 0, Count: -2}, "count must be at least 1"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner()
			r.parallel = tc.parallel
			r.shard = tc.shard
			if _, err := r.RunCampaign(ctx, smallCampaign()); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("RunCampaign: err = %v, want %q", err, tc.wantErr)
			}
			if _, err := r.RunCampaignPartial(ctx, smallCampaign()); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("RunCampaignPartial: err = %v, want %q", err, tc.wantErr)
			}
		})
	}
	// A sharded Runner must not silently truncate RunCampaign.
	r := NewRunner()
	r.shard = ShardSpec{Index: 1, Count: 2}
	if _, err := r.RunCampaign(ctx, smallCampaign()); err == nil || !strings.Contains(err.Error(), "RunCampaignPartial") {
		t.Errorf("sharded RunCampaign: err = %v, want a pointer to RunCampaignPartial", err)
	}
	// RunOverhead shares the worker validation.
	r2 := NewRunner()
	r2.parallel = 0
	ws, vs := smallOverhead()
	if _, err := r2.RunOverhead(ctx, OverheadSpec(ws, vs)); err == nil || !strings.Contains(err.Error(), "at least 1 worker") {
		t.Errorf("RunOverhead: err = %v, want worker validation", err)
	}
	// A Spec that cannot normalize is refused before any execution.
	r3 := NewRunner()
	if _, err := r3.RunOverhead(ctx, Spec{Kind: SpecOverhead}); err == nil || !strings.Contains(err.Error(), "no workloads") {
		t.Errorf("RunOverhead empty spec: err = %v, want normalization error", err)
	}
	if _, err := r3.RunCampaign(ctx, OverheadSpec(ws, vs)); err == nil || !strings.Contains(err.Error(), "needs a campaign spec") {
		t.Errorf("RunCampaign with overhead spec: err = %v, want kind guard", err)
	}
}

// TestParseShard covers the CLI "i/N" syntax both ways.
func TestParseShard(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1": {Index: 0, Count: 1},
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
		"6/7": {Index: 6, Count: 7},
	}
	for text, want := range good {
		got, err := ParseShard(text)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", text, got, err, want)
		}
	}
	bad := []string{"", "3", "a/b", "1/0", "0/0", "-1/3", "3/3", "1/-1", "1/2/3"}
	for _, text := range bad {
		if _, err := ParseShard(text); err == nil {
			t.Errorf("ParseShard(%q) accepted", text)
		}
	}
}

// TestSpanShardValidate covers the explicit trial-span form of
// ShardSpec: validation, rendering, and range clamping.
func TestSpanShardValidate(t *testing.T) {
	good := []ShardSpec{SpanShard(0, 5), SpanShard(3, 4), SpanShard(10, 200)}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("SpanShard %s rejected: %v", s, err)
		}
	}
	bad := []ShardSpec{
		SpanShard(-1, 5),                   // negative lo
		SpanShard(5, 5),                    // empty
		SpanShard(5, 3),                    // inverted
		{Index: 1, Count: 2, Lo: 0, Hi: 5}, // mixed forms
		{Lo: 0, Hi: -3},                    // negative hi
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid span %+v accepted", s)
		}
	}
	if got := SpanShard(3, 9).String(); got != "[3,9)" {
		t.Errorf("SpanShard String = %q", got)
	}
	if lo, hi := SpanShard(2, 50).shardRange(10); lo != 2 || hi != 10 {
		t.Errorf("span range clamps to plan: got [%d, %d), want [2, 10)", lo, hi)
	}
	if lo, hi := SpanShard(20, 50).shardRange(10); lo != hi {
		t.Errorf("out-of-plan span must clamp empty: got [%d, %d)", lo, hi)
	}
}

// TestSpanShardsMergeIdentical cuts a campaign into uneven explicit
// spans and merges them; the result must match the unsharded run — the
// property adaptive resume plans rely on.
func TestSpanShardsMergeIdentical(t *testing.T) {
	spec := smallCampaign()
	total, err := NewRunner().PlanTrials(spec)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4 {
		t.Fatalf("campaign too small to span-cut: %d trials", total)
	}
	cuts := []int{0, 1, total / 3, total}
	var parts []*PartialResult
	for i := 0; i+1 < len(cuts); i++ {
		r := NewRunner()
		r.shard = SpanShard(cuts[i], cuts[i+1])
		p, err := r.RunCampaignPartial(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if p.Lo != cuts[i] || p.Hi != cuts[i+1] {
			t.Fatalf("span %s produced range [%d, %d)", r.shard, p.Lo, p.Hi)
		}
		parts = append(parts, p)
	}
	merged, err := NewRunner().MergeCampaign(spec, parts)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := campaignAt(t, 1)
	if !reflect.DeepEqual(direct.Cells, merged.Cells) || !reflect.DeepEqual(direct.Conditional, merged.Conditional) {
		t.Error("span-cut merge differs from unsharded campaign")
	}
	// A span JSON round trip survives the coordinator wire format.
	var buf bytes.Buffer
	if err := parts[1].Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePartial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Shard != parts[1].Shard {
		t.Errorf("span shard %+v round-tripped to %+v", parts[1].Shard, back.Shard)
	}
}
