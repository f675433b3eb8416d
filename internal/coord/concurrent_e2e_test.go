package coord_test

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dpmr/internal/coord"
	"dpmr/internal/dpmr"
	"dpmr/internal/harness"
)

func concurrentSpec() harness.Spec {
	return harness.ConcurrentSpec([]string{"chash", "cpipe"}, []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
}

func renderConcurrent(t *testing.T, cr *harness.ConcurrentResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	harness.RenderConcurrent(&buf, cr)
	return buf.Bytes()
}

// TestCoordinatorConcurrentByteIdentical: concurrent campaigns ride the
// coordinator protocol unchanged — workers run scheduled multi-VM shards
// via the same ShardPayload entry the CLIs use, one worker is forcibly
// failed mid-shard and retried elsewhere, and the merged report (with
// its consistency-violation column) is byte-identical to an unsharded
// RunConcurrent of the same Spec.
func TestCoordinatorConcurrentByteIdentical(t *testing.T) {
	spec := concurrentSpec()
	direct, err := harness.NewRunner().RunConcurrent(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	golden := renderConcurrent(t, direct)

	var failed int32
	fn := coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
		payload, err := harness.ShardPayload(ctx, spec, shard, harness.Options{})
		if err != nil {
			return nil, err
		}
		if atomic.CompareAndSwapInt32(&failed, 0, 1) {
			return nil, errors.New("worker forcibly failed mid-shard (injected)")
		}
		return payload, nil
	})
	payloads, err := coord.Run(context.Background(), coord.Config{
		Spec: spec, Shards: 3, Workers: 2,
		Spawn: func(int) (coord.Worker, error) { return fn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&failed) != 1 {
		t.Fatal("the fault was never injected")
	}
	parts := make([]*harness.PartialResult, len(payloads))
	for i, p := range payloads {
		if parts[i], err = harness.DecodePartial(bytes.NewReader(p)); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := harness.NewRunner().MergeConcurrent(spec, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderConcurrent(t, merged); !bytes.Equal(golden, got) {
		t.Errorf("coordinated merge differs from unsharded run:\n--- unsharded ---\n%s--- merged ---\n%s", golden, got)
	}
}
