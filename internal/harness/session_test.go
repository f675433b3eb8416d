package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSessionCampaignMatchesRunner: a whole-plan campaign Session
// produces the identical CampaignResult the Runner API computes, emits a
// gapless completion-ordered event stream, and closes it.
func TestSessionCampaignMatchesRunner(t *testing.T) {
	direct, _ := campaignAt(t, 2)

	s, err := Start(context.Background(), smallCampaign(), nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var trialDone, progress, stats int
	lastDone, total := 0, -1
	for ev := range s.Events() {
		switch e := ev.(type) {
		case TrialDone:
			trialDone++
			lastDone, total = e.Done, e.Total
		case Progress:
			progress++
		case CacheStats:
			stats++
		}
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign() == nil || res.partialResult() == nil {
		t.Fatalf("whole-plan campaign session result incomplete: %+v", res)
	}
	if !reflect.DeepEqual(direct.Cells, res.Campaign().Cells) ||
		!reflect.DeepEqual(direct.Conditional, res.Campaign().Conditional) {
		t.Error("session campaign result differs from Runner.RunCampaign")
	}
	if res.partialResult().Lo != 0 || res.partialResult().Hi != res.partialResult().Total {
		t.Errorf("whole-plan partial covers [%d, %d) of %d", res.partialResult().Lo, res.partialResult().Hi, res.partialResult().Total)
	}
	if trialDone != total || lastDone != total || trialDone != progress {
		t.Errorf("event stream incomplete: %d TrialDone, %d Progress, last done %d, total %d",
			trialDone, progress, lastDone, total)
	}
	if stats != 1 {
		t.Errorf("want one final CacheStats event, got %d", stats)
	}
	if res.Stats.Builds == 0 {
		t.Error("final stats snapshot empty")
	}
}

// TestSessionOverheadAndShard: an overhead Session aggregates like the
// Runner API, and a sharded Session returns the shard's partial without
// an aggregate.
func TestSessionOverheadAndShard(t *testing.T) {
	ctx := context.Background()
	ws, vs := smallOverhead()
	spec := OverheadSpec(ws, vs)
	r := NewRunner()
	direct, err := r.RunOverhead(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(ctx, spec, nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait() // never subscribing to Events must not block the run
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, res.overhead()) {
		t.Error("session overhead result differs from Runner.RunOverhead")
	}

	shard := ShardSpec{Index: 1, Count: 3}
	s2, err := Start(ctx, smallCampaign(), nil, Options{Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Campaign() != nil {
		t.Error("sharded session must not aggregate a whole-plan result")
	}
	p := res2.partialResult()
	if p == nil || p.Shard != shard || p.Hi-p.Lo != len(p.Outcomes) {
		t.Fatalf("sharded session partial wrong: %+v", p)
	}
}

// TestSessionExperimentReport: an experiment Session renders the same
// bytes Generate writes, into the report writer.
func TestSessionExperimentReport(t *testing.T) {
	ctx := context.Background()
	spec := quickExp("fig3.16")
	var direct bytes.Buffer
	if err := Generate(ctx, spec, &direct, Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	s, err := Start(ctx, spec, &got, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), got.Bytes()) {
		t.Errorf("session report differs from Generate:\n--- Generate ---\n%s\n--- Session ---\n%s",
			direct.String(), got.String())
	}
}

// TestSessionRejectsInvalidSpec: Start validates synchronously.
func TestSessionRejectsInvalidSpec(t *testing.T) {
	if _, err := Start(context.Background(), Spec{Kind: "banana"}, nil, Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestSessionCancelReturnsCompletedPrefix is the graceful-cancellation
// contract: cancelling mid-campaign stops dispatch, drains in-flight
// trials, leaks no worker goroutines, and Wait returns the
// completed-prefix partial together with ctx.Err(). The prefix outcomes
// must equal the same trials of an uncancelled run.
func TestSessionCancelReturnsCompletedPrefix(t *testing.T) {
	full, err := NewRunner().RunCampaignPartial(context.Background(), smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	s, err := Start(ctx, smallCampaign(), nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel partway through the stream, then drain it: it must close.
	cut := full.Total / 3
	for ev := range s.Events() {
		if td, ok := ev.(TrialDone); ok && td.Done == cut {
			cancel()
		}
	}
	res, err := s.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	p := res.partialResult()
	if p == nil {
		t.Fatal("cancelled session lost its completed prefix")
	}
	if p.Hi-p.Lo != len(p.Outcomes) || p.Lo != 0 {
		t.Fatalf("prefix partial inconsistent: [%d, %d) with %d outcomes", p.Lo, p.Hi, len(p.Outcomes))
	}
	if len(p.Outcomes) >= full.Total {
		t.Errorf("cancellation did not stop dispatch: %d of %d trials ran", len(p.Outcomes), full.Total)
	}
	if len(p.Outcomes) < cut {
		t.Errorf("completed prefix %d shorter than the %d trials observed done", len(p.Outcomes), cut)
	}
	// The completed prefix is byte-for-byte the canonical plan's prefix.
	if !reflect.DeepEqual(p.Outcomes, full.Outcomes[:len(p.Outcomes)]) {
		t.Error("cancelled prefix outcomes differ from the uncancelled run")
	}
	cancel()

	// Drained trials and closed streams mean no engine goroutines outlive
	// the session (allow unrelated runtime noise a little slack).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("worker goroutines leaked after cancel: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestCancelledShardsStillMerge: a coordinator-style deployment where
// one shard is cancelled mid-run can still merge cleanly once the lost
// range is re-run — the cancelled shard's prefix is NOT silently
// accepted as covering its range.
func TestCancelledShardsStillMerge(t *testing.T) {
	bg := context.Background()
	spec := smallCampaign()
	const n = 3
	parts := make([]*PartialResult, 0, n)
	for i := 0; i < n; i++ {
		r := NewRunner()
		r.parallel = 2
		r.shard = ShardSpec{Index: i, Count: n}
		ctx := bg
		var cancel context.CancelFunc
		if i == 1 {
			// Kill shard 1 before it can finish.
			ctx, cancel = context.WithCancel(bg)
			cancel()
		}
		p, err := r.RunCampaignPartial(ctx, spec)
		if i == 1 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled shard error = %v", err)
			}
			if p.Hi != p.Lo {
				t.Fatalf("immediately cancelled shard claims trials [%d, %d)", p.Lo, p.Hi)
			}
			// The surviving prefix does not tile the plan: the merge must
			// name the gap rather than fabricate coverage.
			survivors := append(append([]*PartialResult{}, parts...), p)
			if _, err := NewRunner().MergeCampaign(spec, survivors); err == nil || !strings.Contains(err.Error(), "missing trials") {
				t.Fatalf("merge of cancelled shard set: err = %v, want the missing range named", err)
			}
			// Re-run the lost shard to completion (the recovery path the
			// coordinator automates).
			r2 := NewRunner()
			r2.parallel = 2
			r2.shard = ShardSpec{Index: i, Count: n}
			p, err = r2.RunCampaignPartial(bg, spec)
			if err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	merged, err := NewRunner().MergeCampaign(spec, parts)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := campaignAt(t, 2)
	if !reflect.DeepEqual(direct.Cells, merged.Cells) {
		t.Error("merge after shard recovery differs from unsharded run")
	}
}

// TestOverheadCancelReturnsPrefix covers the overhead engine's
// completed-prefix contract through the Runner surface.
func TestOverheadCancelReturnsPrefix(t *testing.T) {
	ws, vs := smallOverhead()
	spec := OverheadSpec(ws, vs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner()
	p, err := r.RunOverheadPartial(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p == nil || p.Lo != 0 || p.Hi != 0 || len(p.Cycles) != 0 {
		t.Fatalf("pre-cancelled overhead partial should be an empty prefix: %+v", p)
	}
	// And a cancelled whole-plan RunOverhead fails without a result.
	if _, err := NewRunner().RunOverhead(ctx, spec); err == nil {
		t.Error("cancelled RunOverhead returned nil error")
	}
}

// TestCancelledSessionEmitsFinalStats: a run that ends by cancellation
// still emits the final CacheStats snapshot (exactly one) — journal and
// adaptive-sizing consumers must see cache state even for interrupted
// campaigns — and every TrialDone carries a monotonic wall-clock
// duration stamp.
func TestCancelledSessionEmitsFinalStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := Start(ctx, smallCampaign(), nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats, trialDone, badElapsed := 0, 0, 0
	for ev := range s.Events() {
		switch e := ev.(type) {
		case TrialDone:
			trialDone++
			if e.Elapsed <= 0 {
				badElapsed++
			}
			if e.Done == 2 {
				cancel()
			}
		case CacheStats:
			stats++
		}
	}
	res, err := s.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if stats != 1 {
		t.Errorf("cancelled session emitted %d CacheStats events, want exactly 1", stats)
	}
	if res.Stats.Builds == 0 {
		t.Error("cancelled session's final stats snapshot is empty")
	}
	if trialDone == 0 {
		t.Fatal("no TrialDone events before cancellation")
	}
	if badElapsed > 0 {
		t.Errorf("%d of %d TrialDone events missing a positive Elapsed stamp", badElapsed, trialDone)
	}
	cancel()
}

// TestShardMergedCarriesElapsed: merges propagate the partials' recorded
// wall-clock into ShardMerged events (the adaptive-sizing cost signal).
func TestShardMergedCarriesElapsed(t *testing.T) {
	spec := smallCampaign()
	var parts []*PartialResult
	for i := 0; i < 2; i++ {
		r := NewRunner()
		r.shard = ShardSpec{Index: i, Count: 2}
		p, err := r.RunCampaignPartial(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		p.ElapsedMS = int64(100 * (i + 1)) // pin for determinism
		parts = append(parts, p)
	}
	var merged []ShardMerged
	r := NewRunner()
	r.Events = func(ev Event) {
		if sm, ok := ev.(ShardMerged); ok {
			merged = append(merged, sm)
		}
	}
	if _, err := r.MergeCampaign(spec, parts); err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("%d ShardMerged events, want 2", len(merged))
	}
	for i, sm := range merged {
		if want := time.Duration(100*(i+1)) * time.Millisecond; sm.Elapsed != want {
			t.Errorf("shard %d merged with Elapsed %v, want %v", i, sm.Elapsed, want)
		}
	}
}

// TestSessionEventsAfterFinish: subscribing after completion still
// replays the buffered stream and closes.
func TestSessionEventsAfterFinish(t *testing.T) {
	s, err := Start(context.Background(), smallCampaign(), nil, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	count := 0
	for range s.Events() {
		count++
	}
	if count == 0 {
		t.Error("late subscriber saw no events")
	}
}
