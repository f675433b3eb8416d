package coord_test

// Scheduler-layer failpoint drills: poison shards refuse by name,
// dropped completions are recovered by the retry path, and injected
// dispatch crashes route through the quarantine breaker.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

func armCoord(t *testing.T, sched string) {
	t.Helper()
	if err := failpt.Arm(sched); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
}

// TestPoisonShardNamedRefusal: a shard that kills every worker
// incarnation it touches is isolated after PoisonK distinct failures
// and the run refuses with the named PoisonShardError — not an
// endless retry, and not the blander attempts-exhausted error.
func TestPoisonShardNamedRefusal(t *testing.T) {
	poison := coord.Func(func(_ context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		// A plain (non-ShardError) failure reads as a dead worker: the
		// slot respawns, so every attempt is a distinct incarnation.
		return nil, fmt.Errorf("worker murdered by shard %d", s.Index)
	})
	_, err := coord.Run(context.Background(), coord.Config{
		Shards: 1, Workers: 1, MaxAttempts: 10, PoisonK: 3,
		Quarantine: -1, // no backoff: this test is about the refusal, not the pacing
		Spawn:      spawnFunc(poison),
	})
	var pe *coord.PoisonShardError
	if !errors.As(err, &pe) {
		t.Fatalf("poison shard refused with %v, want PoisonShardError", err)
	}
	if pe.Shard != 0 || pe.Workers != 3 {
		t.Errorf("refusal names shard %d after %d workers, want shard 0 after 3", pe.Shard, pe.Workers)
	}
	if !strings.Contains(err.Error(), "poison") || !strings.Contains(err.Error(), "murdered") {
		t.Errorf("refusal %q does not name the poison state and last cause", err)
	}
}

// TestCompletionDropIsRecovered: a completion swallowed by the
// coord/completion failpoint (the worker died between finishing and
// delivering) is retried and the run still produces every payload.
func TestCompletionDropIsRecovered(t *testing.T) {
	armCoord(t, "coord/completion=drop@1")
	payloads, err := coord.Run(context.Background(), coord.Config{
		Shards: 3, Workers: 2, Quarantine: -1, Spawn: spawnFunc(okWorker),
	})
	if err != nil {
		t.Fatalf("run did not recover from a dropped completion: %v", err)
	}
	for i, p := range payloads {
		if len(p) == 0 {
			t.Errorf("shard %d payload missing after drop recovery", i)
		}
	}
	if failpt.Hits("coord/completion") == 0 {
		t.Fatal("drill never evaluated coord/completion — the pass is vacuous")
	}
}

// TestDispatchCrashQuarantinesWorker: injected dispatch-time crashes
// route the slot through the breaker — two consecutive crashes open
// the circuit, the quarantine is named in the scheduling log — and
// the run still completes.
func TestDispatchCrashQuarantinesWorker(t *testing.T) {
	armCoord(t, "coord/dispatch=err(EIO)@1;coord/dispatch=err(EIO)@2")
	var mu sync.Mutex
	var logs []string
	if _, err := coord.Run(context.Background(), coord.Config{
		Shards: 2, Workers: 1, Quarantine: time.Millisecond,
		Spawn: spawnFunc(okWorker),
		Log: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}); err != nil {
		t.Fatalf("run did not survive an injected dispatch crash: %v", err)
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "quarantined") {
		t.Errorf("no quarantine named in scheduling log:\n%s", joined)
	}
	// Whether the slot respawns or the run finishes on its sibling first
	// is a race; either way the quarantine was named and the shard
	// recovered, which is the contract.
}
