package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestPrecompileByteIdentical: pipelined AOT compilation is pure
// execution policy — a campaign with background prefetch workers
// produces the identical result, and the module cache's once-per-key
// build discipline holds (prefetched and demand builds dedup, so the
// build count matches the unprefetched run exactly).
func TestPrecompileByteIdentical(t *testing.T) {
	direct, plain := campaignAt(t, 2)

	s, err := Start(context.Background(), smallCampaign(),
		WithParallel(2), WithPrecompile(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign == nil {
		t.Fatal("prefetched whole-plan campaign returned no aggregate")
	}
	if !reflect.DeepEqual(direct.Cells, res.Campaign.Cells) ||
		!reflect.DeepEqual(direct.Conditional, res.Campaign.Conditional) {
		t.Error("campaign result with Precompile differs from the plain run")
	}
	if plainBuilds := plain.CacheStats().Builds; res.Stats.Builds != plainBuilds {
		t.Errorf("prefetch built %d modules, plain run built %d — duplicate or missing builds",
			res.Stats.Builds, plainBuilds)
	}
}

// TestPrecompileBoundsResidency: the prefetch window degrades the
// last-trial eviction's peak-residency bound by at most the documented
// 2*Precompile+2 admitted-but-unreached modules.
func TestPrecompileBoundsResidency(t *testing.T) {
	run := func(precompile int) CacheStats {
		s, err := Start(context.Background(), smallCampaign(),
			WithParallel(1), WithPrecompile(precompile))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	base := run(0)
	pre := run(2)
	window := 2*2 + 2
	if pre.Peak > base.Peak+window {
		t.Errorf("prefetch peak residency %d exceeds evicted baseline %d + window %d",
			pre.Peak, base.Peak, window)
	}
	if pre.Evicted == 0 {
		t.Error("eviction never fired under prefetch")
	}
}

// TestPrecompileCancel: cancelling mid-campaign with AOT prefetch
// running stops admission, drains the prefetch workers with no
// goroutine outliving the session, leaves no half-populated cache
// entry, and still returns the completed-prefix partial with ctx.Err().
func TestPrecompileCancel(t *testing.T) {
	full, err := NewRunner().RunCampaignPartial(context.Background(), smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner()
	s, err := Start(ctx, smallCampaign(), WithRunner(r),
		WithParallel(2), WithPrecompile(2))
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for ev := range s.Events() {
		if _, ok := ev.(TrialDone); ok {
			done++
			if done == 3 {
				cancel()
			}
		}
	}
	res, err := s.Wait()
	if err != context.Canceled {
		t.Fatalf("cancelled session err = %v, want context.Canceled", err)
	}
	p := res.CampaignPartial
	if p == nil || len(p.Outcomes) == 0 || p.Hi == p.Total {
		t.Fatalf("cancelled session partial wrong: %+v", p)
	}
	if !reflect.DeepEqual(p.Outcomes, full.Outcomes[p.Lo:p.Hi]) {
		t.Error("completed-prefix outcomes differ from the uncancelled run")
	}

	// Prefetch workers and the windower must not outlive the session.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked after cancel under prefetch: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}

	// No half-populated cache entry: whatever the aborted prefetch left
	// behind, rerunning the whole plan on the same Runner must reuse or
	// rebuild cleanly and reproduce the uncancelled result exactly.
	rerun, err := r.RunCampaignPartial(context.Background(), smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rerun.Outcomes, full.Outcomes) {
		t.Error("rerun on the cancelled Runner's cache differs from a fresh run")
	}
}
