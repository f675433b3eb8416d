package coord_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/harness"
)

// TestMain doubles as the worker executable for the Proc tests: the test
// binary re-executed with a recognized first argument becomes a protocol
// worker instead of running the suite.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve-worker":
			// A well-behaved worker; with "slow" it lingers per shard so
			// kills land mid-run.
			err := coord.Serve(os.Stdin, os.Stdout, func(spec harness.Spec, s harness.ShardSpec) ([]byte, error) {
				if len(os.Args) > 2 && os.Args[2] == "slow" {
					time.Sleep(150 * time.Millisecond)
				}
				// Echo the spec's experiment id so tests can assert the
				// assignment carried it over the wire.
				return []byte(fmt.Sprintf(`{"index":%d,"count":%d,"exp":%q}`, s.Index, s.Count, spec.Exp)), nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		case "crash-worker":
			// Reads one assignment, then dies without answering — a crash
			// mid-shard from the coordinator's point of view.
			var a coord.Assignment
			_ = json.NewDecoder(os.Stdin).Decode(&a)
			os.Exit(3)
		case "flaky-worker":
			// Fails its first assignment in-band (the process stays
			// alive), then behaves.
			first := true
			err := coord.Serve(os.Stdin, os.Stdout, func(_ harness.Spec, s harness.ShardSpec) ([]byte, error) {
				if first {
					first = false
					return nil, fmt.Errorf("transient shard failure (injected)")
				}
				return []byte(fmt.Sprintf(`{"index":%d,"count":%d,"exp":""}`, s.Index, s.Count)), nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestProcWorkerRoundTrip: a spawned process worker serves several
// assignments over its lifetime and closes cleanly.
func TestProcWorkerRoundTrip(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := coord.NewProc(nil, exe, "serve-worker")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	spec := harness.ExperimentSpec("fig3.9")
	for i := 0; i < 3; i++ {
		shard := harness.ShardSpec{Index: i, Count: 3}
		payload, err := p.Run(context.Background(), spec, shard)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if want := fmt.Sprintf(`{"index":%d,"count":3,"exp":"fig3.9"}`, i); string(payload) != want {
			t.Errorf("shard %d payload = %s, want %s", i, payload, want)
		}
	}
}

// TestProcWorkerCrashSurfacesAndRetries: the first fleet slot is a
// process that dies mid-shard; the coordinator reports the death,
// respawns the slot (a healthy worker the second time), and completes
// every shard.
func TestProcWorkerCrashSurfacesAndRetries(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	spawn := func(id int) (coord.Worker, error) {
		if id == 0 && !crashed {
			crashed = true
			return coord.NewProc(nil, exe, "crash-worker")
		}
		return coord.NewProc(nil, exe, "serve-worker")
	}
	payloads, err := coord.Run(context.Background(), coord.Config{Shards: 4, Workers: 2, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf(`{"index":%d,"count":4,"exp":""}`, i); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
	if !crashed {
		t.Error("the crashing slot was never spawned")
	}
}

// TestProcWorkerInBandErrorKeepsProcess: a shard error answered in-band
// by a live worker retries the shard without killing or respawning the
// process — warm worker state survives transient shard failures.
func TestProcWorkerInBandErrorKeepsProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawns := 0
	spawn := func(int) (coord.Worker, error) {
		spawns++
		return coord.NewProc(nil, exe, "flaky-worker")
	}
	payloads, err := coord.Run(context.Background(), coord.Config{Shards: 3, Workers: 1, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf(`{"index":%d,"count":3,"exp":""}`, i); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
	if spawns != 1 {
		t.Errorf("in-band error respawned the worker: %d spawns, want 1", spawns)
	}
}

// TestProcWorkerChaosKill: the coordinator's own fault drill hard-kills
// a worker process shortly after its first lease — mid-run, since the
// worker lingers on each shard — and the retried fleet still returns
// every shard's result.
func TestProcWorkerChaosKill(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(int) (coord.Worker, error) { return coord.NewProc(nil, exe, "serve-worker", "slow") }
	var logs []string
	payloads, err := coord.Run(context.Background(), coord.Config{
		Shards: 4, Workers: 2, Chaos: 1, Spawn: spawn,
		Log: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf(`{"index":%d,"count":4,"exp":""}`, i); string(p) != want {
			t.Errorf("payload %d = %s, want %s", i, p, want)
		}
	}
	if !strings.Contains(strings.Join(logs, "\n"), "chaos kill armed") {
		t.Errorf("chaos drill never armed; logs:\n%s", strings.Join(logs, "\n"))
	}
}
