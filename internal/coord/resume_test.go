package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// journalPartial appends one completed campaign partial to the journal —
// the CLI-side record shape the coordinator's OnResult hook writes.
func journalPartial(t *testing.T, j *journal.Journal, planFP string, payload []byte) *harness.PartialResult {
	t.Helper()
	p, err := harness.DecodePartial(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Record{
		PlanFP: planFP, Lo: p.Lo, Hi: p.Hi, Total: p.Total,
		ElapsedMS: p.ElapsedMS, Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCoordinatedResumeJournalDeterministic is satellite 4's coordinator
// leg: an interrupted journal resumed through the fleet — at 1 worker,
// and at 2 workers with an attempt forcibly failed mid-shard — cuts the
// identical adaptive span plan, journals every recovered span exactly
// once through OnResult, and merges byte-identical to a direct
// uninterrupted run.
func TestCoordinatedResumeJournalDeterministic(t *testing.T) {
	ctx := context.Background()
	spec := resumeCampaignSpec()
	direct, err := harness.NewRunner().RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := n.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := n.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt: journal the first 2 of 4 spans of a fresh cut, as if the
	// campaign died halfway.
	dir := t.TempDir()
	j, err := journal.Create(dir, canon, fp)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := harness.NewRunner().Resume(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := 0
	for _, span := range fresh.Spans(4)[:2] {
		payload, err := harness.ShardPayload(ctx, spec, span, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := journalPartial(t, j, fresh.PlanFP, payload)
		interrupted += p.Hi - p.Lo
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}

	type fleetCase struct {
		name    string
		workers int
		sabot   bool // forcibly fail one attempt mid-shard
	}
	var cutSpans [][]harness.ShardSpec
	for _, fc := range []fleetCase{{"1-worker", 1, false}, {"2-workers-chaos", 2, true}} {
		t.Run(fc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journal.FileName), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			j, rp, err := journal.Open(dir, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			c, err := harness.NewRunner().Resume(spec, rp)
			if err != nil {
				t.Fatal(err)
			}
			if c.Done() != interrupted {
				t.Fatalf("journal covers %d trials, interruption left %d", c.Done(), interrupted)
			}
			spans := c.Spans(4)
			cutSpans = append(cutSpans, spans)

			var failed int32
			journaled := 0
			payloads, err := coord.RunFleet(ctx, coord.FleetOptions{
				Spec: spec, Workers: fc.workers, Spans: spans,
				Local: func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
					payload, err := harness.ShardPayload(ctx, spec, shard, harness.Options{})
					if err != nil {
						return nil, err
					}
					if fc.sabot && atomic.CompareAndSwapInt32(&failed, 0, 1) {
						return nil, errors.New("worker forcibly failed mid-shard (injected)")
					}
					return payload, nil
				},
				OnResult: func(shard int, payload []byte) error {
					p := journalPartial(t, j, c.PlanFP, payload)
					journaled += p.Hi - p.Lo
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if fc.sabot && atomic.LoadInt32(&failed) != 1 {
				t.Fatal("the fault was never injected")
			}
			if journaled+interrupted != c.Total {
				t.Errorf("journaled %d + interrupted %d trials != plan total %d — a shard was dropped or double-journaled",
					journaled, interrupted, c.Total)
			}

			replayed, err := c.Payloads()
			if err != nil {
				t.Fatal(err)
			}
			merged, err := harness.NewRunner().MergePayloads(spec, append(replayed, payloads...))
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
			c2, err := harness.NewRunner().Resume(spec, rp2)
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

// TestCoordinatorSpanValidation: explicit span configs are validated at
// New — mismatched Shards counts and non-explicit spans are refused.
func TestCoordinatorSpanValidation(t *testing.T) {
	spawn := func(int) (coord.Worker, error) { return coord.Func(okWorker), nil }
	cases := []struct {
		name string
		cfg  coord.Config
		want string
	}{
		{"shards-vs-spans mismatch",
			coord.Config{Workers: 1, Shards: 3, Spans: []harness.ShardSpec{harness.SpanShard(0, 5)}, Spawn: spawn},
			"3 shards but 1 explicit spans"},
		{"fractional span rejected",
			coord.Config{Workers: 1, Spans: []harness.ShardSpec{{Index: 0, Count: 2}}, Spawn: spawn},
			"explicit [lo,hi) trial spans only"},
		{"invalid span rejected",
			coord.Config{Workers: 1, Spans: []harness.ShardSpec{harness.SpanShard(5, 5)}, Spawn: spawn},
			"invalid explicit trial span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := coord.New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New(%+v) err = %v, want mention of %q", tc.cfg, err, tc.want)
			}
		})
	}

	// Fewer spans than workers is legal (a nearly complete journal).
	co, err := coord.New(coord.Config{Workers: 4,
		Spans: []harness.ShardSpec{harness.SpanShard(2, 7)}, Spawn: spawn})
	if err != nil {
		t.Fatalf("1 span for 4 workers must be legal on explicit spans: %v", err)
	}
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetLeasesExplicitSpans: with Spans set, workers receive exactly
// the configured spans (not fractional cuts) and payloads come back in
// span order.
func TestFleetLeasesExplicitSpans(t *testing.T) {
	spans := []harness.ShardSpec{
		harness.SpanShard(0, 3), harness.SpanShard(3, 4), harness.SpanShard(4, 9),
	}
	var onResults int32
	payloads, err := coord.RunFleet(context.Background(), coord.FleetOptions{
		Workers: 2, Spans: spans,
		Local: func(_ context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
			if !s.Explicit() {
				return nil, errors.New("fractional assignment under explicit spans")
			}
			return json.Marshal(s)
		},
		OnResult: func(int, []byte) error { atomic.AddInt32(&onResults, 1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&onResults); got != int32(len(spans)) {
		t.Errorf("OnResult fired %d times for %d spans", got, len(spans))
	}
	for i, p := range payloads {
		var got harness.ShardSpec
		if err := json.Unmarshal(p, &got); err != nil {
			t.Fatal(err)
		}
		if got != spans[i] {
			t.Errorf("payload %d ran span %v, want %v", i, got, spans[i])
		}
	}
}

// TestFleetOnResultErrorAborts: a failing OnResult sink (a journal that
// cannot make the payload durable) aborts the run with its error.
func TestFleetOnResultErrorAborts(t *testing.T) {
	sinkErr := errors.New("disk full (injected)")
	_, err := coord.RunFleet(context.Background(), coord.FleetOptions{
		Workers: 1, Spans: []harness.ShardSpec{harness.SpanShard(0, 2)},
		Local:    func(_ context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) { return json.Marshal(s) },
		OnResult: func(int, []byte) error { return sinkErr },
	})
	if !errors.Is(err, sinkErr) {
		t.Errorf("fleet with failing result sink err = %v, want %v", err, sinkErr)
	}
}
