package harness

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/workloads"
)

// smallOverhead is a grid small enough for test time but wide enough to
// exercise golden reuse (the non-DPMR variant) and several DPMR builds.
func smallOverhead() ([]workloads.Workload, []Variant) {
	return workloads.All()[:2], []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		NewVariant(dpmr.SDS, dpmr.PadMalloc{Pad: 32}, dpmr.AllLoads{}),
	}
}

// runOverheadShards measures the small grid as n shards (each on its own
// Runner, as separate processes would) and returns the partials in shard
// order, JSON round-tripped so the tests exercise the bytes a sharded
// deployment ships.
func runOverheadShards(t *testing.T, n int) []*OverheadPartial {
	t.Helper()
	ws, vs := smallOverhead()
	parts := make([]*OverheadPartial, n)
	for i := 0; i < n; i++ {
		r := NewRunner()
		r.parallel = 2
		r.shard = ShardSpec{Index: i, Count: n}
		p, err := r.RunOverheadPartial(context.Background(), OverheadSpec(ws, vs))
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatalf("shard %d/%d: encode: %v", i, n, err)
		}
		rp, err := DecodeOverheadPartial(&buf)
		if err != nil {
			t.Fatalf("shard %d/%d: decode: %v", i, n, err)
		}
		parts[i] = rp
	}
	return parts
}

// TestOverheadShardMergeByteIdentical is the overhead sharding contract:
// for several shard counts and adversarial merge orders, the merged
// OverheadResult — and the rendered report bytes — are identical to an
// unsharded RunOverhead.
func TestOverheadShardMergeByteIdentical(t *testing.T) {
	ws, vs := smallOverhead()
	r := NewRunner()
	golden, err := r.RunOverhead(context.Background(), OverheadSpec(ws, vs))
	if err != nil {
		t.Fatal(err)
	}
	var goldenBytes bytes.Buffer
	renderOverhead(&goldenBytes, golden, labelDiversity)
	for _, n := range []int{1, 2, 3, 5} {
		parts := runOverheadShards(t, n)
		orders := [][]*OverheadPartial{parts, reversedOv(parts), rotatedOv(parts, n/2)}
		for oi, order := range orders {
			mr := NewRunner()
			merged, err := mr.MergeOverhead(OverheadSpec(ws, vs), order)
			if err != nil {
				t.Fatalf("n=%d order=%d: %v", n, oi, err)
			}
			if !reflect.DeepEqual(golden, merged) {
				t.Errorf("n=%d order=%d: merged overhead differs from unsharded:\n%+v\nvs\n%+v", n, oi, golden, merged)
			}
			var got bytes.Buffer
			renderOverhead(&got, merged, labelDiversity)
			if !bytes.Equal(goldenBytes.Bytes(), got.Bytes()) {
				t.Errorf("n=%d order=%d: rendered overhead differs:\n--- unsharded ---\n%s\n--- merged ---\n%s",
					n, oi, goldenBytes.String(), got.String())
			}
		}
	}
}

func reversedOv(parts []*OverheadPartial) []*OverheadPartial {
	out := make([]*OverheadPartial, len(parts))
	for i, p := range parts {
		out[len(parts)-1-i] = p
	}
	return out
}

func rotatedOv(parts []*OverheadPartial, by int) []*OverheadPartial {
	out := make([]*OverheadPartial, 0, len(parts))
	out = append(out, parts[by:]...)
	return append(out, parts[:by]...)
}

// TestMergeOverheadRejects covers the validation MergeOverhead shares
// with MergeCampaign: duplicated shards, gaps, foreign plans, nils.
func TestMergeOverheadRejects(t *testing.T) {
	ws, vs := smallOverhead()
	parts := runOverheadShards(t, 3)
	r := NewRunner()
	spec := OverheadSpec(ws, vs)
	if _, err := r.MergeOverhead(spec, []*OverheadPartial{parts[0], parts[1], parts[1], parts[2]}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicated shard not rejected: %v", err)
	}
	if _, err := r.MergeOverhead(spec, []*OverheadPartial{parts[0], parts[2]}); err == nil || !strings.Contains(err.Error(), "missing trials") {
		t.Errorf("missing shard not rejected with a named range: %v", err)
	}
	if _, err := r.MergeOverhead(spec, nil); err == nil || !strings.Contains(err.Error(), "no partial results") {
		t.Errorf("empty merge not rejected: %v", err)
	}
	if _, err := r.MergeOverhead(spec, []*OverheadPartial{parts[0], nil, parts[2]}); err == nil || !strings.Contains(err.Error(), "nil partial") {
		t.Errorf("nil partial not rejected: %v", err)
	}
	// A different variant set is a different plan: refused by fingerprint.
	if _, err := r.MergeOverhead(OverheadSpec(ws, vs[:2]), parts); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign-plan merge not rejected by fingerprint: %v", err)
	}
}

// TestRunOverheadRejectsShard: a Runner configured with a proper shard
// must not silently truncate RunOverhead.
func TestRunOverheadRejectsShard(t *testing.T) {
	ws, vs := smallOverhead()
	r := NewRunner()
	r.shard = ShardSpec{Index: 1, Count: 2}
	if _, err := r.RunOverhead(context.Background(), OverheadSpec(ws, vs)); err == nil || !strings.Contains(err.Error(), "RunOverheadPartial") {
		t.Errorf("sharded RunOverhead: err = %v, want a pointer to RunOverheadPartial", err)
	}
}

// TestDecodeOverheadPartialRejectsMalformed covers the decoder's shape
// checks — malformed input errors, never panics.
func TestDecodeOverheadPartialRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"negative lo":     `{"fingerprint":"f","lo":-1,"hi":0,"total":4,"cycles":[1]}`,
		"hi before lo":    `{"fingerprint":"f","lo":3,"hi":1,"total":4,"cycles":[]}`,
		"hi past total":   `{"fingerprint":"f","lo":0,"hi":9,"total":4,"cycles":[1,2,3,4,5,6,7,8,9]}`,
		"length mismatch": `{"fingerprint":"f","lo":0,"hi":2,"total":4,"cycles":[1]}`,
		"no fingerprint":  `{"lo":0,"hi":1,"total":4,"cycles":[1]}`,
	}
	for name, text := range cases {
		if _, err := DecodeOverheadPartial(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGenerateShardedOverheadByteIdentical drives the dpmr-exp path for
// an overhead experiment: fig3.16 generated as shards, merged out of
// order, against the bytes an unsharded Generate writes.
func TestGenerateShardedOverheadByteIdentical(t *testing.T) {
	ctx := context.Background()
	spec := quickExp("fig3.16")
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
	var merged bytes.Buffer
	readers := []io.Reader{&files[2], &files[0], &files[1]}
	idless := spec
	idless.Exp = ""
	if err := GenerateMerged(ctx, idless, &merged, readers, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Bytes(), merged.Bytes()) {
		t.Errorf("merged fig3.16 differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			golden.String(), merged.String())
	}
}

// TestPlanTrials pins the coordinator-facing plan arithmetic: the plan's
// trial count is stable across Runners and matches what the shards tile.
func TestPlanTrials(t *testing.T) {
	r := NewRunner()
	total, err := r.PlanTrials(smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("PlanTrials = %d", total)
	}
	parts := runShards(t, 3)
	if parts[len(parts)-1].Total != total {
		t.Errorf("PlanTrials = %d, shards tile a %d-trial plan", total, parts[len(parts)-1].Total)
	}
}
