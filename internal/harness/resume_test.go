package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpmr/internal/journal"
)

// newTestJournal creates a fresh journal for the Spec in a temp dir and
// returns it with the dir and the Spec fingerprint.
func newTestJournal(t *testing.T, spec Spec) (*journal.Journal, string, string) {
	t.Helper()
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
	dir := t.TempDir()
	j, err := journal.Create(dir, canon, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j, dir, fp
}

// reopenJournal opens the journal for appending and returns it with the
// replayed state.
func reopenJournal(t *testing.T, dir, fp string) (*journal.Journal, *journal.Replay) {
	t.Helper()
	j, rp, err := journal.Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j, rp
}

// TestJournaledCampaignMatchesDirect: a fresh journaled run produces the
// identical CampaignResult as a direct RunCampaign, executes exactly the
// plan's trial count, and a second pass over the now-complete journal
// replays everything — zero trials re-executed, same result again. The
// span loop counts each module's pending trials over all of its spans,
// so a module whose trials straddle a span boundary stays resident into
// the next span: the journaled run builds exactly the modules the direct
// run does.
func TestJournaledCampaignMatchesDirect(t *testing.T) {
	spec := smallCampaign()
	direct, dr := campaignAt(t, 1)

	j, dir, fp := newTestJournal(t, spec)
	r := NewRunner()
	gotRes, executed, err := r.RunJournaled(context.Background(), spec, j, nil, DefaultResumeSpans, nil)
	got := gotRes.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, got) {
		t.Error("journaled campaign result differs from direct RunCampaign")
	}
	if got, want := r.CacheStats(), dr.CacheStats(); got.Builds != want.Builds || got.Resident != want.Resident {
		t.Errorf("journaled run built %d modules and kept %d, direct run %d and %d",
			got.Builds, got.Resident, want.Builds, want.Resident)
	}

	c, err := NewRunner().Resume(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if executed != c.Total {
		t.Errorf("fresh journaled run executed %d trials, plan holds %d", executed, c.Total)
	}

	// Resume of a complete journal: full replay, nothing executed.
	j2, rp := reopenJournal(t, dir, fp)
	defer j2.Close()
	againRes, executed2, err := NewRunner().RunJournaled(context.Background(), spec, j2, rp, DefaultResumeSpans, nil)
	again := againRes.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if executed2 != 0 {
		t.Errorf("resume of a complete journal re-executed %d trials", executed2)
	}
	if !reflect.DeepEqual(direct, again) {
		t.Error("replayed campaign result differs from direct RunCampaign")
	}
}

// TestJournaledCampaignResumeAfterCancel is the crash harness's
// in-process arm: cancel the journaled run after k completed trials for
// sampled k, then resume from the journal on a fresh Runner. The resume
// must re-execute exactly the missing trials (journaled + resumed ==
// plan total: nothing dropped, nothing double-counted) and the merged
// result must be identical to an uninterrupted run.
func TestJournaledCampaignResumeAfterCancel(t *testing.T) {
	spec := smallCampaign()
	direct, _ := campaignAt(t, 1)
	total := func() int {
		c, err := NewRunner().Resume(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.Total
	}()

	for _, k := range []int{1, 3, total - 2} {
		t.Run(fmt.Sprintf("cancel-after-%d", k), func(t *testing.T) {
			j, dir, fp := newTestJournal(t, spec)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := NewRunner()
			done := 0
			r.Events = func(ev Event) {
				if _, ok := ev.(TrialDone); ok {
					done++
					if done == k {
						cancel()
					}
				}
			}
			_, executed1, err := r.RunJournaled(ctx, spec, j, nil, DefaultResumeSpans, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled journaled run err = %v, want context.Canceled", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if executed1 >= total {
				t.Fatalf("cancelled run claims %d of %d trials executed", executed1, total)
			}

			j2, rp := reopenJournal(t, dir, fp)
			defer j2.Close()
			c, err := NewRunner().Resume(spec, nil, rp)
			if err != nil {
				t.Fatal(err)
			}
			if c.Done() != executed1 {
				t.Errorf("journal covers %d trials, cancelled run reported %d executed", c.Done(), executed1)
			}
			gotRes, executed2, err := NewRunner().RunJournaled(context.Background(), spec, j2, rp, DefaultResumeSpans, nil)
			got := gotRes.Campaign()
			if err != nil {
				t.Fatal(err)
			}
			if executed1+executed2 != total {
				t.Errorf("journaled %d + resumed %d trials != plan total %d", executed1, executed2, total)
			}
			if !reflect.DeepEqual(direct, got) {
				t.Error("resumed campaign result differs from the uninterrupted run")
			}
		})
	}
}

// TestResumeCorruptionMatrix damages a completed journal at and around
// every record boundary — truncations and byte flips — and asserts the
// all-or-nothing recovery contract: either Open succeeds and the resumed
// campaign is identical to the uninterrupted run (re-executing only what
// the surviving records leave uncovered), or Open refuses with one of
// the journal's named errors. No third outcome: a damaged journal never
// silently drops or double-counts a trial.
func TestResumeCorruptionMatrix(t *testing.T) {
	spec := smallCampaign()
	direct, _ := campaignAt(t, 1)

	// The subtests are named by byte offset, so the pristine journal
	// must not depend on wall-clock time: its clock advances 2ms per
	// finished trial, making every ElapsedMS a function of the span.
	j, dir, fp := newTestJournal(t, spec)
	var trials atomic.Int64
	r := NewRunner()
	r.Events = func(ev Event) {
		if _, ok := ev.(TrialDone); ok {
			trials.Add(1)
		}
	}
	r.clock = func() time.Time { return time.Unix(0, 0).Add(time.Duration(trials.Load()) * 2 * time.Millisecond) }
	if _, _, err := r.RunJournaled(context.Background(), spec, j, nil, DefaultResumeSpans, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}

	// Damage points: every record boundary, and a probe shortly after
	// each (mid-record).
	var points []int
	for i, b := range pristine {
		if b == '\n' {
			points = append(points, i+1)
			if i+8 < len(pristine) {
				points = append(points, i+8)
			}
		}
	}
	points = append(points, 0, 1)

	check := func(t *testing.T, damaged []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journal.FileName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rp, err := journal.Open(dir, fp)
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) && !errors.Is(err, journal.ErrSpecMismatch) &&
				!errors.Is(err, journal.ErrNoJournal) {
				t.Fatalf("damaged journal rejected with unnamed error: %v", err)
			}
			return
		}
		defer j.Close()
		gotRes, _, err := NewRunner().RunJournaled(context.Background(), spec, j, rp, DefaultResumeSpans, nil)
		got := gotRes.Campaign()
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("resume from damaged journal failed with unnamed error: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(direct, got) {
			t.Error("resume from damaged journal silently produced a different result")
		}
	}

	for _, p := range points {
		p := p
		t.Run(fmt.Sprintf("truncate-%d", p), func(t *testing.T) {
			check(t, pristine[:p])
		})
		if p < len(pristine) {
			t.Run(fmt.Sprintf("flip-%d", p), func(t *testing.T) {
				damaged := append([]byte(nil), pristine...)
				damaged[p] ^= 0x20
				check(t, damaged)
			})
		}
	}
}

// TestResumeRejectsForgedEnvelope: a record whose envelope range was
// edited — with the checksum recomputed, so the journal layer cannot
// object — still fails resume with ErrCorrupt, because the envelope is
// cross-checked against the decoded payload's own range.
func TestResumeRejectsForgedEnvelope(t *testing.T) {
	spec := smallCampaign()
	j, dir, fp := newTestJournal(t, spec)
	if _, _, err := NewRunner().RunJournaled(context.Background(), spec, j, nil, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, journal.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal holds %d records, want header + shards", len(lines))
	}
	// Shift the first shard record's range up by one trial and move the
	// later records aside so the forged range is free — the envelope
	// stays internally consistent and correctly checksummed, only the
	// payload disagrees.
	var rec journal.Record
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	forged := rec
	forged.Lo, forged.Hi = rec.Hi, rec.Hi+(rec.Hi-rec.Lo)
	out, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(lines[0]+"\n"+string(out)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rp, err := journal.Open(dir, fp)
	if err != nil {
		t.Fatalf("forged envelope must pass the journal layer, got %v", err)
	}
	defer j2.Close()
	_, _, err = NewRunner().RunJournaled(context.Background(), spec, j2, rp, 4, nil)
	if !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("resume over forged envelope err = %v, want ErrCorrupt", err)
	}
}

// TestAdaptiveResumeDeterministicAcrossWorkers: the re-cut plan is a
// pure function of (journal, Spec) — the same interrupted journal
// resumed at 1, 2, and 4 workers cuts identical spans and merges
// byte-identical results.
func TestAdaptiveResumeDeterministicAcrossWorkers(t *testing.T) {
	spec := smallCampaign()
	direct, _ := campaignAt(t, 1)

	// Interrupt a journaled run partway to get a journal with real
	// coverage, timing, and gaps.
	j, dir, fp := newTestJournal(t, spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner()
	done := 0
	r.Events = func(ev Event) {
		if _, ok := ev.(TrialDone); ok {
			if done++; done == 4 {
				cancel()
			}
		}
	}
	if _, _, err := r.RunJournaled(ctx, spec, j, nil, DefaultResumeSpans, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupting run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}

	var spans [][]ShardSpec
	var results []*CampaignResult
	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journal.FileName), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rp := reopenJournal(t, dir, fp)
		r := NewRunner()
		r.parallel = workers
		c, err := r.Resume(spec, nil, rp)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, c.Spans(DefaultResumeSpans))
		gotRes, _, err := r.RunJournaled(context.Background(), spec, j, rp, DefaultResumeSpans, nil)
		got := gotRes.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		results = append(results, got)
	}
	for i := 1; i < len(spans); i++ {
		if !reflect.DeepEqual(spans[0], spans[i]) {
			t.Errorf("re-cut plan differs across worker counts:\n1 worker: %v\n%d workers: %v",
				spans[0], []int{1, 2, 4}[i], spans[i])
		}
	}
	for i, got := range results {
		if !reflect.DeepEqual(direct, got) {
			t.Errorf("resumed result at %d workers differs from the uninterrupted run", []int{1, 2, 4}[i])
		}
	}
}

// TestSpansAdaptiveSizing: unit contract of the adaptive cut. Spans must
// exactly tile the gaps in order, honor the requested count, degrade to
// a uniform cut when the journal holds no timing, and give a region the
// journal measured as slow more (hence smaller) spans than an equally
// sized cheap region.
func TestSpansAdaptiveSizing(t *testing.T) {
	tile := func(t *testing.T, spans, gaps []ShardSpec) {
		t.Helper()
		gi, next := 0, -1
		for _, s := range spans {
			if s.Hi <= s.Lo {
				t.Fatalf("empty span %v", s)
			}
			if next == -1 || next == gaps[gi].Hi {
				if next == gaps[gi].Hi {
					gi++
				}
				if gi >= len(gaps) || s.Lo != gaps[gi].Lo {
					t.Fatalf("span %v does not start gap %d of %v", s, gi, gaps)
				}
			} else if s.Lo != next {
				t.Fatalf("span %v leaves hole after trial %d", s, next)
			}
			next = s.Hi
		}
		if next != gaps[len(gaps)-1].Hi {
			t.Fatalf("spans end at %d, last gap ends at %d", next, gaps[len(gaps)-1].Hi)
		}
	}

	t.Run("uniform-when-untimed", func(t *testing.T) {
		c := &Resume{Total: 40, Gaps: []ShardSpec{SpanShard(0, 40)}}
		spans := c.Spans(4)
		tile(t, spans, c.Gaps)
		want := []ShardSpec{SpanShard(0, 10), SpanShard(10, 20), SpanShard(20, 30), SpanShard(30, 40)}
		if !reflect.DeepEqual(spans, want) {
			t.Errorf("untimed cut = %v, want uniform %v", spans, want)
		}
	})

	t.Run("skewed-cost", func(t *testing.T) {
		// Two equal-size gaps; the journal measured the region adjoining
		// the second gap as 10x slower, so it must receive more spans.
		parts := []partial{
			&PartialResult{Lo: 20, Hi: 30, ElapsedMS: 10},  // 1 ms/trial next to gap [0,20)
			&PartialResult{Lo: 50, Hi: 60, ElapsedMS: 100}, // 10 ms/trial next to gap [30,50)
		}
		c := &Resume{Total: 60, parts: parts,
			Gaps: []ShardSpec{SpanShard(0, 20), SpanShard(30, 50)}}
		spans := c.Spans(8)
		tile(t, spans, c.Gaps)
		if len(spans) != 8 {
			t.Fatalf("cut %d spans, want 8", len(spans))
		}
		cheap, costly := 0, 0
		for _, s := range spans {
			if s.Hi <= 20 {
				cheap++
			} else {
				costly++
			}
		}
		if costly <= cheap {
			t.Errorf("slow region got %d spans, cheap region %d — adaptive sizing inverted", costly, cheap)
		}
	})

	t.Run("at-least-one-span-per-gap", func(t *testing.T) {
		c := &Resume{Total: 10,
			Gaps: []ShardSpec{SpanShard(0, 1), SpanShard(3, 4), SpanShard(6, 10)}}
		spans := c.Spans(2) // fewer than gaps: every gap still covered
		tile(t, spans, c.Gaps)
	})

	t.Run("spans-capped-by-trials", func(t *testing.T) {
		c := &Resume{Total: 3, Gaps: []ShardSpec{SpanShard(0, 3)}}
		spans := c.Spans(8)
		tile(t, spans, c.Gaps)
		if len(spans) > 3 {
			t.Errorf("cut %d spans from 3 trials", len(spans))
		}
	})
}

// TestGenerateJournaledMatchesGenerate: an experiment regenerated
// through the journal writes byte-identical output, the progressive
// snapshots march monotonically to done==total, the final snapshot
// renders the same bytes as the real report, and resuming the completed
// journal replays everything. fig3.7 exercises the campaign path,
// fig3.16 the overhead path.
func TestGenerateJournaledMatchesGenerate(t *testing.T) {
	for _, id := range []string{"fig3.7", "fig3.16"} {
		t.Run(id, func(t *testing.T) {
			ctx := context.Background()
			spec := quickExp(id)
			var golden bytes.Buffer
			if err := Generate(ctx, spec, &golden, Options{}); err != nil {
				t.Fatal(err)
			}

			j, dir, fp := newTestJournal(t, spec)
			var out, lastSnap bytes.Buffer
			prevDone, snaps := -1, 0
			executed, err := GenerateJournaled(ctx, spec, j, nil, 4, &out, Options{},
				func(render func(io.Writer) error, done, total int) {
					snaps++
					if done < prevDone {
						t.Errorf("progressive snapshot went backwards: %d after %d", done, prevDone)
					}
					prevDone = done
					lastSnap.Reset()
					if err := render(&lastSnap); err != nil {
						t.Fatalf("progressive render: %v", err)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if executed == 0 || snaps == 0 {
				t.Fatalf("journaled generate executed %d trials over %d snapshots", executed, snaps)
			}
			if !bytes.Equal(golden.Bytes(), out.Bytes()) {
				t.Errorf("journaled %s differs from direct Generate:\n--- direct ---\n%s\n--- journaled ---\n%s",
					id, golden.String(), out.String())
			}
			if !bytes.Equal(golden.Bytes(), lastSnap.Bytes()) {
				t.Errorf("final progressive snapshot differs from the real report:\n--- report ---\n%s\n--- snapshot ---\n%s",
					golden.String(), lastSnap.String())
			}

			// Resume of the finished journal: pure replay.
			j2, rp := reopenJournal(t, dir, fp)
			defer j2.Close()
			var again bytes.Buffer
			executed2, err := GenerateJournaled(ctx, spec, j2, rp, 4, &again, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if executed2 != 0 {
				t.Errorf("resume of a complete experiment journal re-executed %d trials", executed2)
			}
			if !bytes.Equal(golden.Bytes(), again.Bytes()) {
				t.Errorf("resumed %s report differs from direct Generate", id)
			}
		})
	}
}

// TestGenerateJournaledResumeAfterCancel: interrupt an experiment
// mid-generation, resume from its journal, and the final report is
// byte-identical with the replayed trials skipped.
func TestGenerateJournaledResumeAfterCancel(t *testing.T) {
	ctx := context.Background()
	spec := quickExp("fig3.7")
	var golden bytes.Buffer
	if err := Generate(ctx, spec, &golden, Options{}); err != nil {
		t.Fatal(err)
	}

	j, dir, fp := newTestJournal(t, spec)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fired := 0
	var discard bytes.Buffer
	executed1, err := GenerateJournaled(cctx, spec, j, nil, 6, &discard, Options{},
		func(render func(io.Writer) error, done, total int) {
			if fired++; fired == 3 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled journaled generate err = %v, want context.Canceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rp := reopenJournal(t, dir, fp)
	defer j2.Close()
	var out bytes.Buffer
	executed2, err := GenerateJournaled(ctx, spec, j2, rp, 6, &out, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if executed1 == 0 || executed2 == 0 {
		t.Fatalf("cancel/resume split executed %d then %d trials — the interruption landed outside the run", executed1, executed2)
	}
	if !bytes.Equal(golden.Bytes(), out.Bytes()) {
		t.Errorf("resumed experiment report differs from direct Generate:\n--- direct ---\n%s\n--- resumed ---\n%s",
			golden.String(), out.String())
	}
}
