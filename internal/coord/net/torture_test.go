package coordnet_test

// The seeded torture drill — the robustness headline. Each iteration
// derives a randomized failpoint schedule from a seed (printed for
// replay: DPMR_TORTURE_SEED=<n> go test -run Torture), arms it over a
// full remote campaign — daemon, fleet workers over real sockets,
// journaled submission — and asserts the two-outcome invariant: the
// merged result is identical to the undisturbed baseline, or the
// submission fails with a named error. Never a silent divergence,
// never a hang (the submission deadline), never a goroutine leak.

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

// tortureIterations is how many derived schedules one test run drills.
const tortureIterations = 3

// tortureSeed resolves the drill's base seed: the env override for
// replaying a failure, otherwise the clock.
func tortureSeed(t *testing.T) int64 {
	if s := os.Getenv("DPMR_TORTURE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DPMR_TORTURE_SEED=%q: %v", s, err)
		}
		return n
	}
	return time.Now().UnixNano()
}

// launchTolerantWorkers runs n fleet workers that, unlike joinWorkers,
// tolerate failed joins: an armed schedule may sever the very
// handshake, and a torture worker's job is to keep redialing the way
// a supervised dpmrd -connect process would be restarted.
func launchTolerantWorkers(ctx context.Context, n int, addr string) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = coordnet.WorkerLoop(ctx, addr, harness.Options{}, nil)
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}
	return &wg
}

func TestSeededTortureDrill(t *testing.T) {
	spec := testCampaignSpec()
	golden, err := harness.NewRunner().RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	seed := tortureSeed(t)
	t.Logf("torture drill base seed %d (replay: DPMR_TORTURE_SEED=%d go test -run TestSeededTortureDrill ./internal/coord/net/)", seed, seed)

	for i := 0; i < tortureIterations; i++ {
		iterSeed := seed + int64(i)
		sched := failpt.RandomSchedule(iterSeed, 4)
		t.Logf("iteration %d: seed %d schedule %q", i, iterSeed, sched)

		before := runtime.NumGoroutine()
		srv, addr, shutdown := daemon(t, coordnet.ServerConfig{
			JournalRoot: t.TempDir(),
			Lease:       2 * time.Second,
			Keepalive:   200 * time.Millisecond,
		})
		wctx, wcancel := context.WithCancel(context.Background())
		workers := launchTolerantWorkers(wctx, 3, addr)

		// Give the fleet a moment to assemble before the faults arm; a
		// drill against an empty fleet only ever exercises checkout
		// timeouts. Proceed regardless — that outcome is legal too.
		assembleDeadline := time.Now().Add(2 * time.Second)
		for srv.FleetSize() < 3 && time.Now().Before(assembleDeadline) {
			time.Sleep(5 * time.Millisecond)
		}

		if err := failpt.Arm(sched); err != nil {
			t.Fatalf("iteration %d: RandomSchedule produced an unarmable schedule %q: %v", i, sched, err)
		}

		// The hang bound: a drill outcome must arrive within the
		// deadline or the iteration fails — "no third outcome" includes
		// no wedging.
		sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
		payloads, err := coordnet.Submit(sctx, addr, spec, nil)
		wedged := sctx.Err() != nil
		scancel()
		failpt.Disarm()

		hits := failpt.Sites()
		var fired []string
		for site, n := range hits {
			if n > 0 {
				fired = append(fired, site+"="+strconv.Itoa(n))
			}
		}
		sort.Strings(fired)
		t.Logf("iteration %d: site hits %v", i, fired)

		switch {
		case wedged:
			t.Errorf("iteration %d (seed %d): drill wedged past the %v deadline — the forbidden third outcome", i, iterSeed, 60*time.Second)
		case err != nil:
			// Outcome 2: a named refusal. The error must say something —
			// an empty message is a silent failure with an exit code.
			if err.Error() == "" {
				t.Errorf("iteration %d (seed %d): refusal carries no name", i, iterSeed)
			}
			t.Logf("iteration %d: named refusal: %v", i, err)
		default:
			// Outcome 1: byte-identical to the undisturbed run.
			parts := make([]*harness.PartialResult, len(payloads))
			decodeErr := false
			for k, payload := range payloads {
				p, derr := harness.DecodePartial(bytes.NewReader(payload))
				if derr != nil {
					t.Errorf("iteration %d (seed %d): undecodable shard payload: %v", i, iterSeed, derr)
					decodeErr = true
					break
				}
				parts[k] = p
			}
			if !decodeErr {
				merged, merr := harness.NewRunner().MergeCampaign(spec, parts)
				if merr != nil {
					t.Errorf("iteration %d (seed %d): survived payloads do not merge: %v", i, iterSeed, merr)
				} else if !reflect.DeepEqual(golden, merged) {
					t.Errorf("iteration %d (seed %d): SILENT DIVERGENCE — merged result differs from the undisturbed run", i, iterSeed)
				} else {
					t.Logf("iteration %d: identical merged result", i)
				}
			}
		}

		wcancel()
		workers.Wait()
		shutdown()
		checkGoroutines(t, before)
	}
}
