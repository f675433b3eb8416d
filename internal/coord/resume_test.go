package coord_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dpmr/internal/coord"
	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
	"dpmr/internal/workloads"
)

func resumeCampaignSpec() harness.Spec {
	s := harness.CampaignSpec(faultinject.ImmediateFree, workloads.All()[:2], []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
	s.MaxSites = 3
	return s
}

// interruptedJournal writes a journal holding the spans keep of a fresh
// n-span cut of spec, as if the campaign died with only those done, and
// returns its file bytes, the Spec fingerprint it is keyed by and the
// number of trials it journaled.
func interruptedJournal(t *testing.T, spec harness.Spec, n int, keep ...int) (snapshot []byte, fp string, trials int) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := harness.OpenJournal(dir, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.NewRunner().Resume(spec, j, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := c.Spans(n)
	for _, k := range keep {
		payload, err := harness.ShardPayload(context.Background(), spec, spans[k], harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append(payload); err != nil {
			t.Fatal(err)
		}
		trials += spans[k].Hi - spans[k].Lo
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if snapshot, err = os.ReadFile(filepath.Join(dir, journal.FileName)); err != nil {
		t.Fatal(err)
	}
	if fp, err = spec.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	return snapshot, fp, trials
}

// resumeFrom copies a journal snapshot into a fresh dir and resumes spec
// from it, journaling to the copy, which it returns open with its dir.
func resumeFrom(t *testing.T, spec harness.Spec, snapshot []byte, fp string) (*harness.Resume, *journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journal.FileName), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rp, err := journal.Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	c, err := harness.NewRunner().Resume(spec, j, rp)
	if err != nil {
		t.Fatal(err)
	}
	return c, j, dir
}

// localSpawn spawns a fresh Local per fleet slot.
func localSpawn(int) (coord.Worker, error) { return coord.NewLocal(harness.Options{}), nil }

// TestCoordinatedResumeJournalDeterministic: an interrupted journal
// resumed through Run with Config.Resume — at 1 worker, and at 2
// workers with an attempt forcibly failed mid-shard — leases the
// identical adaptive span cut, journals every recovered span exactly
// once, and merges equal to a direct uninterrupted run.
func TestCoordinatedResumeJournalDeterministic(t *testing.T) {
	ctx := context.Background()
	spec := resumeCampaignSpec()
	direct, err := harness.NewRunner().RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt: journal the first 2 of 4 spans of a fresh cut.
	snapshot, fp, interrupted := interruptedJournal(t, spec, 4, 0, 1)

	type fleetCase struct {
		name    string
		workers int
		sabot   bool // forcibly fail one attempt mid-shard
	}
	var cutSpans [][]harness.ShardSpec
	for _, fc := range []fleetCase{{"1-worker", 1, false}, {"2-workers-chaos", 2, true}} {
		t.Run(fc.name, func(t *testing.T) {
			c, j, dir := resumeFrom(t, spec, snapshot, fp)
			if c.Done() != interrupted {
				t.Fatalf("journal covers %d trials, interruption left %d", c.Done(), interrupted)
			}

			var failed int32
			var mu sync.Mutex
			var leased []harness.ShardSpec
			worker := coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
				payload, err := harness.ShardPayload(ctx, spec, shard, harness.Options{})
				if err != nil {
					return nil, err
				}
				if fc.sabot && atomic.CompareAndSwapInt32(&failed, 0, 1) {
					return nil, errors.New("worker forcibly failed mid-shard (injected)")
				}
				mu.Lock()
				leased = append(leased, shard)
				mu.Unlock()
				return payload, nil
			})
			journaled := 0
			_, err := coord.Run(ctx, coord.Config{
				Spec: spec, Shards: 4, Workers: fc.workers, Resume: c,
				Spawn: func(int) (coord.Worker, error) { return worker, nil },
				OnResult: func(shard harness.ShardSpec, _ []byte) error {
					if shard.Lo >= interrupted {
						journaled += shard.Hi - shard.Lo
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if fc.sabot && atomic.LoadInt32(&failed) != 1 {
				t.Fatal("the fault was never injected")
			}
			if journaled+interrupted != c.Total || c.Done() != c.Total {
				t.Errorf("journaled %d + interrupted %d trials (coverage %d) != plan total %d — a shard was dropped or double-journaled",
					journaled, interrupted, c.Done(), c.Total)
			}
			sort.Slice(leased, func(a, b int) bool { return leased[a].Lo < leased[b].Lo })
			cutSpans = append(cutSpans, leased)

			merged, err := c.Merge()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, merged.Campaign()) {
				t.Error("coordinated resume merged result differs from the uninterrupted run")
			}

			// The journal now covers the whole plan: a further resume
			// replays everything and re-runs nothing.
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rp2, err := journal.Open(dir, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			c2, err := harness.NewRunner().Resume(spec, nil, rp2)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Done() != c2.Total || len(c2.Gaps) != 0 {
				t.Errorf("resumed journal covers %d of %d trials with %d gaps, want complete",
					c2.Done(), c2.Total, len(c2.Gaps))
			}
		})
	}
	if len(cutSpans) == 2 && !reflect.DeepEqual(cutSpans[0], cutSpans[1]) {
		t.Errorf("re-cut span plan differs across fleets:\n1 worker: %v\n2 workers: %v", cutSpans[0], cutSpans[1])
	}
}

// TestFleetLeasesExplicitSpans: with Config.Resume, Run leases exactly
// Resume.Spans(Shards) — even fewer spans than workers — hands OnResult
// each returned payload once (replayed ones first), and returns the
// replayed and fresh payloads together in trial order.
func TestFleetLeasesExplicitSpans(t *testing.T) {
	spec := resumeCampaignSpec()
	snapshot, fp, _ := interruptedJournal(t, spec, 4, 0, 2)
	c, _, _ := resumeFrom(t, spec, snapshot, fp)
	replayedSpans, _, err := c.Payloads()
	if err != nil {
		t.Fatal(err)
	}
	want := c.Spans(1) // one span per gap: 2 spans for 4 workers
	const workers = 4
	if len(want) != 2 {
		t.Fatalf("a 1-span cut of two gaps gave %d spans", len(want))
	}
	byLo := func(s []harness.ShardSpec) []harness.ShardSpec {
		sort.Slice(s, func(a, b int) bool { return s[a].Lo < s[b].Lo })
		return s
	}

	var mu sync.Mutex
	var leased []harness.ShardSpec
	var seen []harness.ShardSpec
	payloads, err := coord.Run(context.Background(), coord.Config{
		Spec: spec, Shards: 1, Workers: workers, Resume: c,
		Spawn: func(id int) (coord.Worker, error) {
			local := coord.NewLocal(harness.Options{})
			return coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
				mu.Lock()
				leased = append(leased, shard)
				mu.Unlock()
				return local.Run(ctx, spec, shard)
			}), nil
		},
		OnResult: func(shard harness.ShardSpec, _ []byte) error {
			seen = append(seen, shard)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byLo(leased), want) {
		t.Errorf("leased %v, want the resume's spans %v verbatim", leased, want)
	}
	if len(seen) != len(replayedSpans)+len(want) || !reflect.DeepEqual(seen[:len(replayedSpans)], replayedSpans) ||
		!reflect.DeepEqual(byLo(seen[len(replayedSpans):]), want) {
		t.Errorf("OnResult saw %v, want the replayed spans %v, then the leased ones %v", seen, replayedSpans, want)
	}
	if len(payloads) != len(seen) {
		t.Fatalf("%d payloads returned, OnResult saw %d", len(payloads), len(seen))
	}
	next := 0
	for i, payload := range payloads {
		p, err := harness.DecodePartial(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if p.Lo != next {
			t.Fatalf("payload %d covers [%d, %d), want it to start at trial %d", i, p.Lo, p.Hi, next)
		}
		next = p.Hi
	}
	if next != c.Total {
		t.Errorf("payloads cover [0, %d) of %d trials", next, c.Total)
	}
}

// TestRunCompleteJournalSpawnsNothing: resuming a complete journal leases
// nothing and spawns no worker; Run returns the replayed payloads, each
// seen once by OnResult.
func TestRunCompleteJournalSpawnsNothing(t *testing.T) {
	spec := resumeCampaignSpec()
	snapshot, fp, _ := interruptedJournal(t, spec, 2, 0, 1)
	c, _, _ := resumeFrom(t, spec, snapshot, fp)
	var spawns, results int32
	payloads, err := coord.Run(context.Background(), coord.Config{
		Spec: spec, Shards: 8, Workers: 2, Resume: c,
		Spawn: func(id int) (coord.Worker, error) {
			atomic.AddInt32(&spawns, 1)
			return localSpawn(id)
		},
		OnResult: func(harness.ShardSpec, []byte) error { atomic.AddInt32(&results, 1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawns != 0 {
		t.Errorf("a complete journal spawned %d workers", spawns)
	}
	if len(payloads) != 2 || results != 2 {
		t.Errorf("got %d payloads and %d OnResult calls, want the 2 replayed spans", len(payloads), results)
	}
	merged, err := harness.NewRunner().MergePayloads(spec, payloads)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := harness.NewRunner().RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, merged.Campaign()) {
		t.Error("replayed payloads merge to a different result than a direct run")
	}
}

// TestFleetOnResultErrorAborts: a failing OnResult sink aborts the run
// with its error.
func TestFleetOnResultErrorAborts(t *testing.T) {
	spec := resumeCampaignSpec()
	dir := t.TempDir()
	j, _, err := harness.OpenJournal(dir, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c, err := harness.NewRunner().Resume(spec, j, nil)
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("disk full (injected)")
	_, err = coord.Run(context.Background(), coord.Config{
		Spec: spec, Shards: 2, Workers: 1, Resume: c, Spawn: localSpawn,
		OnResult: func(harness.ShardSpec, []byte) error { return sinkErr },
	})
	if !errors.Is(err, sinkErr) {
		t.Errorf("fleet with failing result sink err = %v, want %v", err, sinkErr)
	}
}
