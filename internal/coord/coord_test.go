package coord_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
)

// payload is the synthetic shard result the scheduler tests round-trip:
// the scheduler treats payloads as opaque bytes, so any JSON document
// will do.
func payload(s harness.ShardSpec) []byte {
	return []byte(fmt.Sprintf(`{"index":%d,"count":%d}`, s.Index, s.Count))
}

func okWorker(_ context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
	return payload(s), nil
}

func spawnFunc(f coord.Func) func(int) (coord.Worker, error) {
	return func(int) (coord.Worker, error) { return f, nil }
}

// TestCoordinatorCollectsAllShards: M shards across a smaller fleet come
// back complete and in shard order, regardless of completion order.
func TestCoordinatorCollectsAllShards(t *testing.T) {
	payloads, err := coord.Run(context.Background(), coord.Config{Shards: 7, Workers: 3, Spawn: spawnFunc(okWorker)})
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 7 {
		t.Fatalf("got %d payloads, want 7", len(payloads))
	}
	for i, p := range payloads {
		if want := string(payload(harness.ShardSpec{Index: i, Count: 7})); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
}

// TestCoordinatorRetriesCrashedWorker: attempts that die mid-shard are
// reassigned, the failing slots are respawned, and the run still
// completes with every shard's result intact.
func TestCoordinatorRetriesCrashedWorker(t *testing.T) {
	var crashes int32 = 2 // the first two attempts overall die
	var spawns int32
	// A crashed slot respawns after posting its failure, and a run that
	// has finished skips pending respawns. So successful attempts wait
	// until both replacements exist: otherwise the healthy slot could
	// finish the plan before the second crashed slot respawns.
	respawned := make(chan struct{})
	spawn := func(id int) (coord.Worker, error) {
		if atomic.AddInt32(&spawns, 1) == 4 {
			close(respawned)
		}
		return coord.Func(func(ctx context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
			if atomic.AddInt32(&crashes, -1) >= 0 {
				return nil, errors.New("worker killed mid-shard (injected)")
			}
			select {
			case <-respawned:
				return payload(s), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}), nil
	}
	// Quarantine off: this test counts respawns, so it wants the
	// pre-breaker immediate-respawn behavior.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payloads, err := coord.Run(ctx, coord.Config{Shards: 6, Workers: 2, Quarantine: -1, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if want := string(payload(harness.ShardSpec{Index: i, Count: 6})); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
	if got := atomic.LoadInt32(&spawns); got < 4 {
		t.Errorf("crashed slots were not respawned: %d spawns, want ≥ 4 (2 initial + 2 replacements)", got)
	}
}

// TestCoordinatorReassignsStraggler: a shard whose first attempt hangs
// past its lease is speculatively re-leased to another worker; the
// first-completed result wins and Run returns without waiting for the
// straggler (it is cancelled at shutdown).
func TestCoordinatorReassignsStraggler(t *testing.T) {
	var stalled int32
	var shard0Attempts int32
	fn := coord.Func(func(ctx context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		if s.Index == 0 {
			atomic.AddInt32(&shard0Attempts, 1)
			if atomic.CompareAndSwapInt32(&stalled, 0, 1) {
				<-ctx.Done() // hang until the coordinator shuts down
				return nil, ctx.Err()
			}
		}
		return payload(s), nil
	})
	done := make(chan struct{})
	var payloads [][]byte
	var runErr error
	go func() {
		payloads, runErr = coord.Run(context.Background(), coord.Config{
			Shards: 4, Workers: 2, Lease: 25 * time.Millisecond, Spawn: spawnFunc(fn),
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not recover from the straggler")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, p := range payloads {
		if want := string(payload(harness.ShardSpec{Index: i, Count: 4})); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
	if got := atomic.LoadInt32(&shard0Attempts); got < 2 {
		t.Errorf("straggler shard was never re-leased: %d attempts", got)
	}
}

// TestCoordinatorFailsAfterMaxAttempts: a shard that fails on every
// attempt exhausts its budget and Run reports the shard and the last
// error instead of spinning forever.
func TestCoordinatorFailsAfterMaxAttempts(t *testing.T) {
	fn := coord.Func(func(_ context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		if s.Index == 2 {
			return nil, errors.New("shard 2 is cursed")
		}
		return payload(s), nil
	})
	_, err := coord.Run(context.Background(), coord.Config{Shards: 4, Workers: 2, MaxAttempts: 2, Spawn: spawnFunc(fn)})
	if err == nil {
		t.Fatal("coordinator succeeded with an always-failing shard")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") || !strings.Contains(err.Error(), "cursed") {
		t.Errorf("error does not name the attempts and cause: %v", err)
	}
}

// TestCoordinatorFailsWhenAllAttemptsWedge: a shard whose every attempt
// hangs without erroring must fail loudly once all MaxAttempts leases
// have expired — never hang the fleet forever.
func TestCoordinatorFailsWhenAllAttemptsWedge(t *testing.T) {
	fn := coord.Func(func(ctx context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		if s.Index == 1 {
			<-ctx.Done() // wedged: never completes, never errors
			return nil, ctx.Err()
		}
		return payload(s), nil
	})
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = coord.Run(context.Background(), coord.Config{
			Shards: 3, Workers: 3, Lease: 15 * time.Millisecond, MaxAttempts: 2, Spawn: spawnFunc(fn),
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on the wedged shard")
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "lease") {
		t.Errorf("Run = %v, want a lease-exhaustion failure", runErr)
	}
}

// TestCoordinatorHonorsContextCancel: cancelling the caller's context
// stops the run promptly even with shards still pending.
func TestCoordinatorHonorsContextCancel(t *testing.T) {
	fn := coord.Func(func(ctx context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := coord.Run(ctx, coord.Config{Shards: 2, Workers: 2, Spawn: spawnFunc(fn)}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}

// TestCoordinatorConfigValidation covers Run's rejection table.
func TestCoordinatorConfigValidation(t *testing.T) {
	spawn := spawnFunc(okWorker)
	cases := []struct {
		name    string
		cfg     coord.Config
		wantErr string
	}{
		{"zero workers", coord.Config{Shards: 2, Workers: 0, Spawn: spawn}, "at least 1"},
		{"zero shards", coord.Config{Shards: 0, Workers: 1, Spawn: spawn}, "at least 1"},
		{"fewer shards than workers", coord.Config{Shards: 2, Workers: 4, Spawn: spawn}, "at least as fine"},
		{"negative lease", coord.Config{Shards: 2, Workers: 2, Lease: -time.Second, Spawn: spawn}, "negative lease"},
		{"negative attempts", coord.Config{Shards: 2, Workers: 2, MaxAttempts: -1, Spawn: spawn}, "negative MaxAttempts"},
		{"no spawn", coord.Config{Shards: 2, Workers: 2}, "Spawn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := coord.Run(context.Background(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Run(%+v) err = %v, want %q", tc.cfg, err, tc.wantErr)
			}
		})
	}
}

// TestServeProtocol drives the worker side of the wire protocol
// directly: assignments in (each carrying the Spec), completions out,
// run errors in-band.
func TestServeProtocol(t *testing.T) {
	in := strings.NewReader(
		`{"spec":{"kind":"campaign"},"shard":{"index":0,"count":3}}` + "\n" +
			`{"spec":{"kind":"campaign"},"shard":{"index":2,"count":3}}` + "\n")
	var out strings.Builder
	var seenKinds []harness.SpecKind
	err := coord.Serve(in, &out, func(spec harness.Spec, s harness.ShardSpec) ([]byte, error) {
		seenKinds = append(seenKinds, spec.Kind)
		if s.Index == 2 {
			return nil, errors.New("no can do")
		}
		return payload(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d completions, want 2:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], `"payload"`) || strings.Contains(lines[0], `"error"`) {
		t.Errorf("completion 0 should carry a payload: %s", lines[0])
	}
	if !strings.Contains(lines[1], "no can do") {
		t.Errorf("completion 1 should carry the in-band error: %s", lines[1])
	}
	for i, k := range seenKinds {
		if k != harness.SpecCampaign {
			t.Errorf("assignment %d: worker saw spec kind %q, want campaign", i, k)
		}
	}
}

// TestCoordinatorCarriesSpecToWorkers: the Spec in Config rides in every
// assignment — each Worker.Run observes it verbatim, so a worker never
// re-derives the experiment from anywhere else.
func TestCoordinatorCarriesSpecToWorkers(t *testing.T) {
	want := harness.ExperimentSpec("fig3.7")
	want.Quick = true
	var mismatches int32
	fn := coord.Func(func(_ context.Context, spec harness.Spec, s harness.ShardSpec) ([]byte, error) {
		if spec.Exp != want.Exp || !spec.Quick || spec.Kind != harness.SpecExperiment {
			atomic.AddInt32(&mismatches, 1)
		}
		return payload(s), nil
	})
	if _, err := coord.Run(context.Background(), coord.Config{Spec: want, Shards: 4, Workers: 2, Spawn: spawnFunc(fn)}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&mismatches) != 0 {
		t.Errorf("%d assignments arrived with a different Spec", mismatches)
	}
}

// TestCLIFleetShardFailureInBand: an in-process -coord slot reports a
// failing shard in-band, as dpmrd's local slots and -coord-spawn
// processes do, so the slot keeps its warm Runner (no respawn, no
// quarantine) and the run ends with attempts exhausted on the
// ShardError, not with a poison refusal.
func TestCLIFleetShardFailureInBand(t *testing.T) {
	spec := harness.CampaignSpec(faultinject.ImmediateFree, nil, nil)
	spec.TimeoutFactor = harness.MaxTimeoutFactor + 1 // every shard fails to normalize
	cf := coord.CLIFlags{Workers: 2, Shards: 2, Lease: time.Minute}
	cfg := cf.Fleet(spec, harness.Options{}, false, nil)
	var spawns int32
	spawn := cfg.Spawn
	cfg.Spawn = func(id int) (coord.Worker, error) {
		atomic.AddInt32(&spawns, 1)
		return spawn(id)
	}
	_, err := coord.Run(context.Background(), cfg)
	var se *coord.ShardError
	var pe *coord.PoisonShardError
	if !errors.As(err, &se) || errors.As(err, &pe) || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Fatalf("failing shard ended the run with %v, want attempts exhausted on an in-band ShardError", err)
	}
	if !strings.Contains(se.Msg, harness.ErrTimeoutFactor.Error()) {
		t.Errorf("ShardError %q does not carry the shard's cause", se.Msg)
	}
	if spawns != 2 {
		t.Errorf("%d spawns for a 2-slot fleet: a slot was respawned after an in-band failure", spawns)
	}
}
