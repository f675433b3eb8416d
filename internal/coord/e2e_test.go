package coord_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"dpmr/internal/coord"
	"dpmr/internal/harness"
)

// coordinate runs the named experiment through a coordinator fleet of
// in-process workers and renders the merged report, with inject allowed
// to sabotage attempts (return an error after the shard ran — i.e. a
// worker forcibly failed mid-shard, its work lost).
func coordinate(t *testing.T, exp string, cfg coord.Config,
	inject func(shard harness.ShardSpec, payload []byte) ([]byte, error)) []byte {
	t.Helper()
	opts := harness.Options{}
	// The worker runs whatever Spec its assignment carries — exactly what
	// a `dpmr-exp -worker` process does via harness.ShardPayload.
	fn := coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
		payload, err := harness.ShardPayload(ctx, spec, shard, opts)
		if err != nil {
			return nil, err
		}
		return inject(shard, payload)
	})
	cfg.Spec = quickSpec(exp)
	cfg.Spawn = func(int) (coord.Worker, error) { return fn, nil }
	payloads, err := coord.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(payloads))
	for i, p := range payloads {
		readers[i] = bytes.NewReader(p)
	}
	var merged bytes.Buffer
	if err := harness.GenerateMerged(context.Background(), quickSpec(exp), &merged, readers, opts); err != nil {
		t.Fatal(err)
	}
	return merged.Bytes()
}

func quickSpec(exp string) harness.Spec {
	s := harness.ExperimentSpec(exp)
	s.Quick = true
	return s
}

func unsharded(t *testing.T, exp string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.Generate(context.Background(), quickSpec(exp), &buf, harness.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoordinatorMergedReportByteIdentical is the PR's acceptance
// contract, in-process and race-clean: one worker is forcibly failed
// mid-shard (its completed work discarded), the coordinator retries the
// shard elsewhere, and the merged campaign report is byte-identical to
// an unsharded run of the same experiment.
func TestCoordinatorMergedReportByteIdentical(t *testing.T) {
	golden := unsharded(t, "fig3.7")
	var failed int32
	merged := coordinate(t, "fig3.7", coord.Config{Shards: 5, Workers: 3},
		func(_ harness.ShardSpec, payload []byte) ([]byte, error) {
			if atomic.CompareAndSwapInt32(&failed, 0, 1) {
				return nil, errors.New("worker forcibly failed mid-shard (injected)")
			}
			return payload, nil
		})
	if atomic.LoadInt32(&failed) != 1 {
		t.Fatal("the fault was never injected")
	}
	if !bytes.Equal(golden, merged) {
		t.Errorf("retried merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s", golden, merged)
	}
}

// TestCoordinatorShardedOverheadByteIdentical drives an overhead
// experiment (fig3.16 runs no injection campaign at all) through the
// same coordinator pipeline: sharded RunOverhead partials, streamed,
// merged — byte-identical to the unsharded report even with a failed
// attempt in the mix.
func TestCoordinatorShardedOverheadByteIdentical(t *testing.T) {
	golden := unsharded(t, "fig3.16")
	var failed int32
	merged := coordinate(t, "fig3.16", coord.Config{Shards: 4, Workers: 2},
		func(_ harness.ShardSpec, payload []byte) ([]byte, error) {
			if atomic.CompareAndSwapInt32(&failed, 0, 1) {
				return nil, errors.New("worker forcibly failed mid-shard (injected)")
			}
			return payload, nil
		})
	if !bytes.Equal(golden, merged) {
		t.Errorf("sharded overhead merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s", golden, merged)
	}
}

// TestCancelledCoordinatorSurvivorsMerge: cancelling a coordinator run
// mid-flight loses nothing durable — the partials its workers had
// already streamed merge cleanly with re-runs of the shards the fleet
// never finished, byte-identical to an unsharded run.
func TestCancelledCoordinatorSurvivorsMerge(t *testing.T) {
	const shards = 4
	const exp = "fig3.16"
	golden := unsharded(t, exp)
	opts := harness.Options{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	survived := map[int][]byte{}
	fn := coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
		p, err := harness.ShardPayload(ctx, spec, shard, opts)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		survived[shard.Index] = p
		n := len(survived)
		mu.Unlock()
		if n == 2 {
			cancel() // kill the run with half the plan streamed
		}
		return p, nil
	})
	if _, err := coord.Run(ctx, coord.Config{
		Spec: quickSpec(exp), Shards: shards, Workers: 2,
		Spawn: func(int) (coord.Worker, error) { return fn, nil },
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// Run returned, so every worker goroutine has exited: survived is
	// stable. Recover by re-running only the missing shards.
	if len(survived) < 2 {
		t.Fatalf("only %d shards survived the cancelled run", len(survived))
	}
	for i := 0; i < shards; i++ {
		if _, ok := survived[i]; ok {
			continue
		}
		p, err := harness.ShardPayload(context.Background(), quickSpec(exp),
			harness.ShardSpec{Index: i, Count: shards}, opts)
		if err != nil {
			t.Fatal(err)
		}
		survived[i] = p
	}
	readers := make([]io.Reader, shards)
	for i := 0; i < shards; i++ {
		readers[i] = bytes.NewReader(survived[i])
	}
	var merged bytes.Buffer
	if err := harness.GenerateMerged(context.Background(), quickSpec(exp), &merged, readers, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, merged.Bytes()) {
		t.Errorf("survivor merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			golden, merged.String())
	}
}
