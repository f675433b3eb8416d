package harness

import (
	"context"
	"errors"
	"strings"
	"syscall"
	"testing"

	"dpmr/internal/failpt"
)

// parityKinds is one small Spec per plan kind. Each plan holds at least
// two trials, so a two-span journaled run executes exactly two spans.
func parityKinds() []struct {
	name string
	spec Spec
} {
	campaign, overhead, concurrent := pinSpecs()
	return []struct {
		name string
		spec Spec
	}{{"campaign", campaign}, {"overhead", overhead}, {"concurrent", concurrent}}
}

// TestJournaledFailpointParity: the resume and span failpoints fire for
// every plan kind, because every kind resumes and runs its spans through
// the one journaled span loop. An armed site fails the run with the named
// injected error, and the failed span leaves no journal record: the
// resume failpoint refuses before any span runs, and a span failpoint on
// the second span keeps exactly the first span's record.
func TestJournaledFailpointParity(t *testing.T) {
	t.Cleanup(failpt.Disarm)
	for _, k := range parityKinds() {
		for _, tc := range []struct {
			site, schedule string
			records        int
		}{{siteResume, siteResume + "=err(EIO)", 0}, {siteSpan, siteSpan + "=err(EIO)@2", 1}} {
			t.Run(k.name+"/"+tc.site, func(t *testing.T) {
				j, dir, fp := newTestJournal(t, k.spec)
				if err := failpt.Arm(tc.schedule); err != nil {
					t.Fatal(err)
				}
				_, _, err := NewRunner().RunJournaled(context.Background(), k.spec, j, nil, 2, nil)
				hits := failpt.Hits(tc.site)
				failpt.Disarm()
				if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), tc.site) {
					t.Fatalf("err = %v, want the injected EIO named by %s", err, tc.site)
				}
				if hits == 0 {
					t.Fatalf("%s never evaluated", tc.site)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				j2, rp := reopenJournal(t, dir, fp)
				defer j2.Close()
				if got := len(rp.Shards); got != tc.records {
					t.Errorf("journal holds %d shard records after the failure, want %d", got, tc.records)
				}
			})
		}
	}
}

// TestJournaledSnapshotParity: every plan kind reports its progressive
// snapshot once after replay and once per span — on a fresh journal
// (two spans: three snapshots) and on a fully replayed one (no span:
// one snapshot) — so a resumed run refreshes its report before any span
// lands, whatever its kind.
func TestJournaledSnapshotParity(t *testing.T) {
	for _, k := range parityKinds() {
		t.Run(k.name, func(t *testing.T) {
			total, err := NewRunner().PlanTrials(k.spec)
			if err != nil {
				t.Fatal(err)
			}
			j, dir, fp := newTestJournal(t, k.spec)
			var fresh []int
			_, _, err = NewRunner().RunJournaled(context.Background(), k.spec, j, nil, 2, func(res Result, done, planTotal int) {
				if planTotal != total {
					t.Errorf("snapshot reports a %d-trial plan, want %d", planTotal, total)
				}
				fresh = append(fresh, done)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if len(fresh) != 3 || fresh[0] != 0 || fresh[2] != total {
				t.Errorf("fresh journal snapshots at %v done trials, want 3 snapshots from 0 to %d", fresh, total)
			}

			j2, rp := reopenJournal(t, dir, fp)
			defer j2.Close()
			var replayed []int
			_, executed, err := NewRunner().RunJournaled(context.Background(), k.spec, j2, rp, 2, func(res Result, done, _ int) {
				replayed = append(replayed, done)
			})
			if err != nil {
				t.Fatal(err)
			}
			if executed != 0 || len(replayed) != 1 || replayed[0] != total {
				t.Errorf("replayed journal executed %d trials with snapshots at %v, want none executed and one snapshot at %d",
					executed, replayed, total)
			}
		})
	}
}

// The typed view of a Result's partial the tests read.
func (res Result) partialResult() *PartialResult {
	p, _ := res.part.(*PartialResult)
	return p
}

func (res Result) overheadPartial() *OverheadPartial {
	p, _ := res.part.(*OverheadPartial)
	return p
}
