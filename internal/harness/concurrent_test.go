package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/failpt"
)

func smallConcurrent() Spec {
	return ConcurrentSpec([]string{"chash", "cpipe"}, []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
}

func renderConc(cr *ConcurrentResult) string {
	var buf bytes.Buffer
	RenderConcurrent(&buf, cr)
	return buf.String()
}

func concurrentAt(t *testing.T, parallel int) *ConcurrentResult {
	t.Helper()
	r := NewRunner()
	r.parallel = parallel
	cr, err := r.RunConcurrent(context.Background(), smallConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestConcurrentDeterministicAcrossWorkerCounts is the concurrent kind's
// core contract: same (Spec, schedule seed) ⇒ identical ConcurrentResult
// at any -parallel, down to the rendered report bytes, even though each
// trial itself runs a multi-goroutine scheduled group.
func TestConcurrentDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := concurrentAt(t, 1)
	for _, parallel := range []int{2, 4} {
		p := concurrentAt(t, parallel)
		if !reflect.DeepEqual(serial.Cells, p.Cells) {
			t.Errorf("cells differ between parallel=1 and parallel=%d:\n%+v\nvs\n%+v",
				parallel, serial.Cells, p.Cells)
		}
		if got, want := renderConc(p), renderConc(serial); got != want {
			t.Errorf("rendered reports differ at parallel=%d:\n--- serial ---\n%s--- parallel ---\n%s",
				parallel, want, got)
		}
	}
}

// TestConcurrentReportShape: the rendered summary carries the
// consistency-violation column, every cell observed Runs trials, and the
// fault-free baselines behaved — stdapp rows are all-CO and the clean
// workloads show no consistency violations.
func TestConcurrentReportShape(t *testing.T) {
	cr := concurrentAt(t, 2)
	out := renderConc(cr)
	if !strings.Contains(out, "ConsistViol") {
		t.Fatalf("report lacks the ConsistViol column:\n%s", out)
	}
	if !strings.Contains(out, "concurrent campaign: 3 threads, schedule seed 1") {
		t.Fatalf("report lacks the scheduler header:\n%s", out)
	}
	spec, err := smallConcurrent().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cr.Variants {
		for _, w := range cr.Workloads {
			c := cr.Cell(v, w)
			if c.N != spec.Runs {
				t.Errorf("%s %s: N = %d, want %d", v.Label(), w, c.N, spec.Runs)
			}
			if c.ConsistViol != 0 {
				t.Errorf("%s %s: clean workload flagged ConsistViol %.2f", v.Label(), w, c.ConsistViol)
			}
		}
	}
	for _, w := range cr.Workloads {
		if c := cr.Cell(Stdapp(), w); c.CO != 1 {
			t.Errorf("stdapp %s: CO = %.2f, want 1.00", w, c.CO)
		}
	}
}

// TestConcurrentShardsMergeByteIdentical: the plan cut into shards on
// independent Runners, round-tripped through the partial wire encoding,
// merges into a result byte-identical to the unsharded run — the same
// contract MergeCampaign gives injection campaigns.
func TestConcurrentShardsMergeByteIdentical(t *testing.T) {
	spec := smallConcurrent()
	whole := concurrentAt(t, 2)
	for _, count := range []int{2, 3} {
		var parts []*PartialResult
		for idx := 0; idx < count; idx++ {
			r := NewRunner()
			r.parallel = 2
			r.shard = ShardSpec{Index: idx, Count: count}
			p, err := r.RunConcurrentPartial(context.Background(), spec)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", idx, count, err)
			}
			var buf bytes.Buffer
			if err := p.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			rt, err := DecodePartial(&buf)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, rt)
		}
		// Reversed input order: merge must reassemble by plan range.
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		merged, err := NewRunner().MergeConcurrent(spec, parts)
		if err != nil {
			t.Fatalf("merge %d shards: %v", count, err)
		}
		if got, want := renderConc(merged), renderConc(whole); got != want {
			t.Errorf("%d-shard merge differs from unsharded run:\n--- unsharded ---\n%s--- merged ---\n%s",
				count, want, got)
		}
	}
}

// TestConcurrentSession: the Session layer runs concurrent Specs like any
// other kind — full-plan runs surface both the partial and the aggregate,
// and the aggregate matches a direct RunConcurrent.
func TestConcurrentSession(t *testing.T) {
	s, err := Start(context.Background(), smallConcurrent(), nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.partialResult() == nil || res.concurrent() == nil {
		t.Fatalf("session result incomplete: partial %v aggregate %v",
			res.partialResult() != nil, res.concurrent() != nil)
	}
	p := res.partialResult()
	if p.Lo != 0 || p.Hi != p.Total || len(p.Outcomes) != p.Total {
		t.Fatalf("full-plan partial spans [%d, %d) of %d", p.Lo, p.Hi, p.Total)
	}
	if got, want := renderConc(res.concurrent()), renderConc(concurrentAt(t, 1)); got != want {
		t.Errorf("session report differs from direct run:\n--- direct ---\n%s--- session ---\n%s",
			want, got)
	}
}

// TestConcurrentJournaledMatchesDirect: a fresh journaled concurrent run
// produces the identical report as a direct RunConcurrent and executes
// exactly the plan's trials; a second pass over the now-complete journal
// replays everything — zero trials re-executed, same report again.
func TestConcurrentJournaledMatchesDirect(t *testing.T) {
	spec := smallConcurrent()
	want := renderConc(concurrentAt(t, 2))
	j, dir, fp := newTestJournal(t, spec)
	r := NewRunner()
	r.parallel = 2
	res, executed, err := r.RunJournaled(context.Background(), spec, j, nil, DefaultResumeSpans, nil)
	got := res.concurrent()
	if err != nil {
		t.Fatal(err)
	}
	total, err := NewRunner().PlanTrials(spec)
	if err != nil {
		t.Fatal(err)
	}
	if executed != total {
		t.Errorf("fresh journaled run executed %d trials, want %d", executed, total)
	}
	if renderConc(got) != want {
		t.Errorf("journaled report differs from direct run:\n--- direct ---\n%s--- journaled ---\n%s",
			want, renderConc(got))
	}
	j.Close()

	j2, rp := reopenJournal(t, dir, fp)
	defer j2.Close()
	res2, executed2, err := NewRunner().RunJournaled(context.Background(), spec, j2, rp, DefaultResumeSpans, nil)
	again := res2.concurrent()
	if err != nil {
		t.Fatal(err)
	}
	if executed2 != 0 {
		t.Errorf("replay of a complete journal re-executed %d trials", executed2)
	}
	if renderConc(again) != want {
		t.Errorf("replayed report differs from direct run")
	}
}

// TestConcurrentConsistViolSurfaces: a recorder fault that silently drops
// one traced store makes the checker flag the trial, and the violation
// reaches the report's ConsistViol column — the end-to-end path of the
// new detection axis. The probe scans drop positions in order; the
// schedule is deterministic, so the first violating position is too.
func TestConcurrentConsistViolSurfaces(t *testing.T) {
	spec := ConcurrentSpec([]string{"chash"}, []Variant{Stdapp()})
	spec.Runs = 1
	t.Cleanup(failpt.Disarm)
	// The early trace prefix is the group's initialization stores, whose
	// dropped values tend to be overwritten before any read; later
	// positions hit the read-back phase. Scan the latter first.
	var positions []int
	for k := 256; k <= 640; k++ {
		positions = append(positions, k)
	}
	for k := 1; k < 256; k++ {
		positions = append(positions, k)
	}
	for _, k := range positions {
		if err := failpt.Arm(fmt.Sprintf("mem/trace-drop=drop@%d", k)); err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		p, err := r.RunConcurrentPartial(context.Background(), spec)
		failpt.Disarm()
		if err != nil {
			t.Fatal(err)
		}
		viol := false
		for _, o := range p.Outcomes {
			viol = viol || o.ConsistViol
		}
		if !viol {
			continue
		}
		plan, err := planConcurrent(mustNormalize(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		out := renderConc(aggregateConcurrent(plan, p.Outcomes))
		if !strings.Contains(out, "1.00\n") || !strings.Contains(out, "ConsistViol") {
			t.Fatalf("violating trial not visible in report:\n%s", out)
		}
		return
	}
	t.Fatal("no probed trace-drop position provoked a consistency violation")
}

func mustNormalize(t *testing.T, spec Spec) Spec {
	t.Helper()
	n, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n
}
