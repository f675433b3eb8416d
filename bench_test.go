// Package dpmrbench holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Chapters 3 and 4) as Go
// benchmarks: one Benchmark function per table/figure, reporting the
// figure's headline quantities as custom metrics (overhead ×golden,
// coverage fractions, detection latency in testbed milliseconds).
//
// The full renderings — the exact rows the paper plots — come from
// `go run ./cmd/dpmr-exp -exp <id>`; the benches here track the same
// numbers in a form `go test -bench` can watch over time.
package dpmrbench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpmr/internal/consist"
	"dpmr/internal/coord"
	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/journal"
	"dpmr/internal/mem"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

var benchMem = mem.Config{HeapBytes: 4 * 1024 * 1024, StackBytes: 256 * 1024, GlobalBytes: 64 * 1024}

// benchVariant interprets one prepared module b.N times (compiled, the
// default execution path) and reports the cycle clock and overhead ratio.
func benchVariant(b *testing.B, w workloads.Workload, v harness.Variant, golden uint64) {
	b.Helper()
	m := buildFor(b, w, v, nil)
	m.Freeze()
	prog, err := interp.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	externs := extlib.Base()
	if v.DPMR {
		externs = extlib.Wrapped(v.Design)
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.Run(m, interp.Config{Externs: externs, Mem: benchMem, Seed: 1, Prog: prog})
		if res.Kind != interp.ExitNormal {
			b.Fatalf("%s/%s: %v (%s)", w.Name, v.Label(), res.Kind, res.Reason)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
	if golden > 0 {
		b.ReportMetric(float64(cycles)/float64(golden), "overhead-x")
	}
}

// BenchmarkInterp is the interpreter microbenchmark: one golden workload
// run per iteration, compiled bytecode vs the tree-walking reference.
// The compiled/reference ns/op ratio is the dispatch speedup the
// compile-once/execute-many pipeline buys; allocs/op tracks the frame
// arena (compiled runs should not allocate per call).
func BenchmarkInterp(b *testing.B) {
	for _, wname := range []string{"art", "mcf"} {
		w := mustWorkload(b, wname)
		m := w.Build()
		m.Freeze()
		prog, err := interp.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, prog *interp.Program) {
			b.Helper()
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res := interp.Run(m, interp.Config{Externs: extlib.Base(), Mem: benchMem, Seed: 1, Prog: prog})
				if res.Kind != interp.ExitNormal {
					b.Fatalf("%s: %v (%s)", wname, res.Kind, res.Reason)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles/run")
		}
		b.Run(wname+"/compiled", func(b *testing.B) { run(b, prog) })
		b.Run(wname+"/reference", func(b *testing.B) { run(b, nil) })
	}
}

func buildFor(b *testing.B, w workloads.Workload, v harness.Variant, inj *faultinject.Site) *ir.Module {
	b.Helper()
	m := w.Build()
	if inj != nil {
		fm, err := faultinject.Apply(m, *inj)
		if err != nil {
			b.Fatal(err)
		}
		m = fm
	}
	if !v.DPMR {
		return m
	}
	xm, err := dpmr.Transform(m, dpmr.Config{Design: v.Design, Diversity: v.Diversity, Policy: v.Policy, Seed: 12345})
	if err != nil {
		b.Fatal(err)
	}
	return xm
}

func goldenCycles(b *testing.B, w workloads.Workload) uint64 {
	b.Helper()
	res := interp.Run(w.Build(), interp.Config{Externs: extlib.Base(), Mem: benchMem})
	if res.Kind != interp.ExitNormal {
		b.Fatalf("golden %s: %v (%s)", w.Name, res.Kind, res.Reason)
	}
	return res.Cycles
}

func mustWorkload(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// overheadFigure benches the representative variants of an overhead
// figure across the pointer-light/pointer-heavy extremes.
func overheadFigure(b *testing.B, variants map[string]harness.Variant) {
	for _, wname := range []string{"art", "mcf"} {
		w := mustWorkload(b, wname)
		golden := goldenCycles(b, w)
		for label, v := range variants {
			v := v
			b.Run(wname+"/"+label, func(b *testing.B) {
				benchVariant(b, w, v, golden)
			})
		}
	}
}

// coverageFigure runs a quick campaign once, reports its coverage
// fractions, and times a representative injected run.
func coverageFigure(b *testing.B, design dpmr.Design, kind faultinject.Kind,
	variant harness.Variant, conditional bool) {
	r := harness.NewRunner()
	ws := workloads.All()[:2] // art + bzip2 keep bench time bounded
	spec := harness.CampaignSpec(kind, ws, []harness.Variant{harness.Stdapp(), variant})
	spec.Runs = 1
	spec.MaxSites = 3
	cr, err := r.RunCampaign(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	var cov, dpmrDet float64
	var n int
	if conditional {
		c := cr.Conditional[variant.Label()]
		cov, dpmrDet, n = c.Coverage(), c.DpmrDet, c.N
	} else {
		for _, wname := range cr.Workloads {
			c := cr.Cells[variant.Label()][wname]
			cov += c.Coverage()
			dpmrDet += c.DpmrDet
			n += c.N
		}
		cov /= float64(len(cr.Workloads))
		dpmrDet /= float64(len(cr.Workloads))
	}
	// Time one representative injected experiment per iteration.
	w := ws[0]
	sites := faultinject.Enumerate(w.Build(), kind)
	if len(sites) == 0 {
		b.Fatal("no sites")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunOnce(w, variant, &sites[0], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cov, "coverage")
	b.ReportMetric(dpmrDet, "dpmr-det")
	b.ReportMetric(float64(n), "injections")
	_ = design
}

// latencyTable runs injected experiments and reports mean detection
// latency in testbed milliseconds.
func latencyTable(b *testing.B, design dpmr.Design, div dpmr.Diversity, pol dpmr.Policy) {
	r := harness.NewRunner()
	v := harness.NewVariant(design, div, pol)
	w := mustWorkload(b, "mcf")
	sites := faultinject.Enumerate(w.Build(), faultinject.ImmediateFree)
	var sumMS float64
	var det int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := r.RunOnce(w, v, &sites[i%len(sites)], 0)
		if err != nil {
			b.Fatal(err)
		}
		if o.Detected() && o.SF {
			sumMS += float64(o.T2DCycles) / harness.CyclesPerMS
			det++
		}
	}
	if det > 0 {
		b.ReportMetric(sumMS/float64(det), "t2d-ms")
	}
	b.ReportMetric(float64(det)/float64(b.N), "det-rate")
}

// ---------------------------------------------------------------------------
// Chapter 3 (SDS)

func BenchmarkFig3_06_ResizeCoverageDiversity(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}), false)
}

func BenchmarkFig3_07_ImmediateFreeCoverageDiversity(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}), false)
}

func BenchmarkFig3_08_ResizeConditionalCoverage(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}), true)
}

func BenchmarkFig3_09_ImmediateFreeConditionalCoverage(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}), true)
}

func BenchmarkFig3_10_OverheadDiversity(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"no-diversity":    harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		"pad-malloc-1024": harness.NewVariant(dpmr.SDS, dpmr.PadMalloc{Pad: 1024}, dpmr.AllLoads{}),
	})
}

func BenchmarkTab3_03_DetectionLatencyDiversity(b *testing.B) {
	latencyTable(b, dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
}

func BenchmarkFig3_11_ResizeCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf), false)
}

func BenchmarkFig3_12_ImmediateFreeCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 50}), false)
}

func BenchmarkFig3_13_ResizeConditionalCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 90}), true)
}

func BenchmarkFig3_14_ImmediateFreeConditionalCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.SDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalEighth), true)
}

func BenchmarkFig3_15_OverheadPolicies(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"all-loads":    harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
		"temporal-1-2": harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf),
		"static-10":    harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 10}),
	})
}

func BenchmarkFig3_16_TemporalPeriodicityAblation(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"temporal-naive":    harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf),
		"periodic-unrolled": harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.PeriodicLoadChecking{Period: 2}),
	})
}

func BenchmarkTab3_04_DetectionLatencyPolicies(b *testing.B) {
	latencyTable(b, dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 90})
}

// ---------------------------------------------------------------------------
// Chapter 4 (MDS)

func BenchmarkFig4_03_SideBySideDiversityOverhead(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"sds": harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		"mds": harness.NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
}

func BenchmarkFig4_04_SideBySidePolicyOverhead(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"sds-static10": harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 10}),
		"mds-static10": harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 10}),
	})
}

func BenchmarkFig4_05_MDSOverheadDiversity(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"no-diversity":   harness.NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		"rearrange-heap": harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
}

func BenchmarkFig4_06_MDSOverheadPolicies(b *testing.B) {
	overheadFigure(b, map[string]harness.Variant{
		"all-loads": harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
		"static-10": harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 10}),
	})
}

func BenchmarkFig4_07_MDSResizeCoverageDiversity(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}), false)
}

func BenchmarkFig4_08_MDSImmediateFreeCoverageDiversity(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}), false)
}

func BenchmarkFig4_09_MDSResizeConditionalCoverage(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}), true)
}

func BenchmarkFig4_10_MDSImmediateFreeConditionalCoverage(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}), true)
}

func BenchmarkFig4_11_MDSResizeCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf), false)
}

func BenchmarkFig4_12_MDSImmediateFreeCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 50}), false)
}

func BenchmarkFig4_13_MDSResizeConditionalCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.HeapArrayResize,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 90}), true)
}

func BenchmarkFig4_14_MDSImmediateFreeConditionalCoveragePolicies(b *testing.B) {
	coverageFigure(b, dpmr.MDS, faultinject.ImmediateFree,
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.TemporalEighth), true)
}

func BenchmarkTab4_05_MDSDetectionLatencyDiversity(b *testing.B) {
	latencyTable(b, dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
}

func BenchmarkTab4_06_MDSDetectionLatencyPolicies(b *testing.B) {
	latencyTable(b, dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 90})
}

// ---------------------------------------------------------------------------
// Campaign engine throughput

// BenchmarkCampaign measures the two-stage campaign engine end to end: a
// multi-site, multi-variant fault-injection campaign at increasing worker
// counts. The serial/parallel sub-benchmark ratio is the engine's
// speedup; every worker count produces an identical CampaignResult (the
// determinism tests in internal/harness assert byte-identical reports).
func BenchmarkCampaign(b *testing.B) {
	campaign := benchCampaignSpec()
	trials := planTrials(b, campaign)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("parallel%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration so the module cache is
				// cold: the benchmark covers both engine stages.
				r := harness.NewRunner()
				r.Parallel = workers
				cr, err := r.RunCampaign(context.Background(), campaign)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.CachedModules()), "modules-built")
					var n int
					for _, wname := range cr.Workloads {
						n += cr.Cells[harness.Stdapp().Label()][wname].N
					}
					b.ReportMetric(float64(n), "stdapp-injections")
				}
			}
			reportTrialsPerSec(b, trials)
		})
	}

	// Reference ablation: the same campaign on the tree-walking reference
	// interpreter (Compile off). The parallelN/referenceN trials/sec ratio
	// is the speedup the compiled bytecode buys; results are byte-identical
	// (the differential test asserts it), only the clock differs.
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("reference%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := harness.NewRunner()
				r.Parallel = workers
				r.Compile = false
				if _, err := r.RunCampaign(context.Background(), campaign); err != nil {
					b.Fatal(err)
				}
			}
			reportTrialsPerSec(b, trials)
		})
	}

	// Sharded-merge: the same campaign as 3 shards (each on a fresh
	// Runner, as separate processes would run them) plus the
	// JSON round trip and the merge. The delta against parallel1 is the
	// coordination overhead sharding pays for horizontal scale.
	b.Run("shard3merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			const n = 3
			parts := make([]*harness.PartialResult, n)
			for s := 0; s < n; s++ {
				r := harness.NewRunner()
				r.EvictModules = true
				r.Shard = harness.ShardSpec{Index: s, Count: n}
				p, err := r.RunCampaignPartial(context.Background(), campaign)
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := p.Encode(&buf); err != nil {
					b.Fatal(err)
				}
				if parts[s], err = harness.DecodePartial(&buf); err != nil {
					b.Fatal(err)
				}
			}
			r := harness.NewRunner()
			if _, err := r.MergeCampaign(campaign, parts); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Pipelined AOT: background workers build and compile upcoming
	// modules ahead of the execution frontier, overlapping stage-1
	// module construction with stage-2 trials. The delta against
	// parallel2 isolates what the overlap buys on this core count
	// (stage 1 is ~18% of the serial campaign); results stay
	// byte-identical at any Precompile value.
	for _, workers := range []int{2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("precompile%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := harness.NewRunner()
				r.Parallel = workers
				r.Precompile = workers
				if _, err := r.RunCampaign(context.Background(), campaign); err != nil {
					b.Fatal(err)
				}
			}
			reportTrialsPerSec(b, trials)
		})
	}

	// Eviction ablation: serial campaign with last-trial eviction;
	// residency metrics quantify the bound eviction buys.
	b.Run("evict", func(b *testing.B) {
		var stats harness.CacheStats
		for i := 0; i < b.N; i++ {
			r := harness.NewRunner()
			r.EvictModules = true
			if _, err := r.RunCampaign(context.Background(), campaign); err != nil {
				b.Fatal(err)
			}
			stats = r.CacheStats()
		}
		b.ReportMetric(float64(stats.Peak), "peak-resident")
		b.ReportMetric(float64(stats.Builds), "modules-built")
	})

	// Journal ablation: the same serial campaign made crash-safe — every
	// completed span fsynced to the journal and the progressive report
	// atomically rewritten as it lands. The delta against parallel1 is
	// what durability costs.
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			j, prior, err := harness.OpenJournal(dir, false, campaign)
			if err != nil {
				b.Fatal(err)
			}
			_, _, err = harness.NewRunner().RunCampaignJournaled(context.Background(), campaign, j, prior,
				harness.DefaultResumeSpans, func(cr *harness.CampaignResult, done, total int) {
					if werr := journal.WriteReport(dir, func(w io.Writer) error {
						_, err := fmt.Fprintf(w, "%s: %d of %d trials\n", cr.Kind, done, total)
						return err
					}); werr != nil {
						b.Fatal(werr)
					}
				})
			if err != nil {
				b.Fatal(err)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		}
		reportTrialsPerSec(b, trials)
	})

	// Resume overhead: replaying a complete journal — decode, checksum
	// verification, cross-checks, and the merge — with zero trials
	// re-executed. This is the fixed price a resumed campaign pays before
	// its first new trial.
	b.Run("journalreplay", func(b *testing.B) {
		dir := b.TempDir()
		j, prior, err := harness.OpenJournal(dir, false, campaign)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := harness.NewRunner().RunCampaignJournaled(context.Background(), campaign, j, prior,
			harness.DefaultResumeSpans, nil); err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, rp, err := harness.OpenJournal(dir, true, campaign)
			if err != nil {
				b.Fatal(err)
			}
			_, executed, err := harness.NewRunner().RunCampaignJournaled(context.Background(), campaign, j, rp,
				harness.DefaultResumeSpans, nil)
			if err != nil {
				b.Fatal(err)
			}
			if executed != 0 {
				b.Fatalf("replay of a complete journal executed %d trials", executed)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCampaignSpec is the benchmark campaign both BenchmarkCampaign
// and BenchmarkCoordinator run: art + bzip2, three variants, six sites,
// one run per tuple.
func benchCampaignSpec() harness.Spec {
	spec := harness.CampaignSpec(faultinject.ImmediateFree, workloads.All()[:2], []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
	spec.Runs = 1
	spec.MaxSites = 6
	return spec
}

// planTrials sizes the benchmark campaign's canonical plan (for the
// trials/sec throughput metric).
func planTrials(b *testing.B, campaign harness.Spec) int {
	b.Helper()
	r := harness.NewRunner()
	trials, err := r.PlanTrials(campaign)
	if err != nil {
		b.Fatal(err)
	}
	return trials
}

func reportTrialsPerSec(b *testing.B, trials int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)*float64(b.N)/secs, "trials/sec")
	}
}

// shardWorker builds the in-process coordinator worker the benchmark
// fleets share: a fresh Runner per assignment (as concurrent fleet slots
// require), JSON round trip included — the exact bytes a process fleet
// would stream.
func shardWorker() coord.Func {
	return func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
		r := harness.NewRunner()
		r.EvictModules = true
		r.Shard = shard
		p, err := r.RunCampaignPartial(ctx, spec)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// BenchmarkCoordinator measures the shard coordinator end to end: the
// benchmark campaign cut into 2×workers shards, leased to an in-process
// fleet, streamed back as JSON partials, and merged. The delta against
// BenchmarkCampaign/parallelN is the coordination overhead a supervised
// fleet pays for crash/straggler tolerance; the straggler sub-benchmark
// injects a wedged first attempt and measures the lease-expiry retry
// path (its wall clock ≈ lease + normal run, not the straggler's hang).
func BenchmarkCoordinator(b *testing.B) {
	campaign := benchCampaignSpec()
	trials := planTrials(b, campaign)
	mergeAll := func(b *testing.B, payloads [][]byte) {
		b.Helper()
		parts := make([]*harness.PartialResult, len(payloads))
		for i, payload := range payloads {
			p, err := harness.DecodePartial(bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			parts[i] = p
		}
		r := harness.NewRunner()
		if _, err := r.MergeCampaign(campaign, parts); err != nil {
			b.Fatal(err)
		}
	}
	worker := shardWorker()
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				co, err := coord.New(coord.Config{
					Spec:    campaign,
					Shards:  2 * workers,
					Workers: workers,
					Spawn:   func(int) (coord.Worker, error) { return worker, nil },
				})
				if err != nil {
					b.Fatal(err)
				}
				payloads, err := co.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				mergeAll(b, payloads)
			}
			reportTrialsPerSec(b, trials)
		})
	}

	b.Run("straggler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The first attempt overall wedges until shutdown; the lease
			// expires and the shard is speculatively re-leased.
			var wedged int32
			slow := coord.Func(func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
				if atomic.CompareAndSwapInt32(&wedged, 0, 1) {
					<-ctx.Done()
					return nil, ctx.Err()
				}
				return shardWorker()(ctx, spec, shard)
			})
			co, err := coord.New(coord.Config{
				Spec:    campaign,
				Shards:  4,
				Workers: 2,
				Lease:   50 * time.Millisecond,
				Spawn:   func(int) (coord.Worker, error) { return slow, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			payloads, err := co.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			mergeAll(b, payloads)
		}
		reportTrialsPerSec(b, trials)
	})
}

// BenchmarkRemoteFleet measures the networked campaign service end to
// end: the benchmark campaign submitted to an in-process dpmrd Server
// over a loopback socket, run by 1/2/4 remote fleet workers (each a
// persistent Runner on its own connection, frames and JSON included),
// and merged client-side. The func sub-benchmarks run the identical
// schedule on in-process coord.Func workers — the remoteN/funcN
// trials/sec ratio is what the network transport costs.
func BenchmarkRemoteFleet(b *testing.B) {
	campaign := benchCampaignSpec()
	trials := planTrials(b, campaign)
	mergeAll := func(b *testing.B, payloads [][]byte) {
		b.Helper()
		parts := make([]*harness.PartialResult, len(payloads))
		for i, payload := range payloads {
			p, err := harness.DecodePartial(bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			parts[i] = p
		}
		if _, err := harness.NewRunner().MergeCampaign(campaign, parts); err != nil {
			b.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("remote%d", workers), func(b *testing.B) {
			srv := coordnet.NewServer(coordnet.ServerConfig{})
			ln, err := coordnet.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ctx, ln) }()
			wctx, wcancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := coordnet.WorkerLoop(wctx, ln.Addr().String(), harness.Options{Evict: true}, nil); err != nil {
						b.Errorf("WorkerLoop: %v", err)
					}
				}()
			}
			for srv.FleetSize() < workers {
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				payloads, err := coordnet.Submit(context.Background(), ln.Addr().String(), campaign, nil)
				if err != nil {
					b.Fatal(err)
				}
				mergeAll(b, payloads)
			}
			b.StopTimer()
			wcancel()
			wg.Wait()
			cancel()
			if err := <-serveDone; err != nil {
				b.Fatal(err)
			}
			reportTrialsPerSec(b, trials)
		})
	}

	// The in-process baseline: the same 2×workers shard schedule on
	// coord.Func workers — no sockets, no frames, same merge.
	worker := shardWorker()
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("func%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				co, err := coord.New(coord.Config{
					Spec:    campaign,
					Shards:  2 * workers,
					Workers: workers,
					Spawn:   func(int) (coord.Worker, error) { return worker, nil },
				})
				if err != nil {
					b.Fatal(err)
				}
				payloads, err := co.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				mergeAll(b, payloads)
			}
			reportTrialsPerSec(b, trials)
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md

func BenchmarkAblationCacheModelOff(b *testing.B) {
	w := mustWorkload(b, "mcf")
	m := buildFor(b, w, harness.NewVariant(dpmr.SDS, dpmr.PadMalloc{Pad: 1024}, dpmr.AllLoads{}), nil)
	cfg := benchMem
	cfg.DisableCache = true
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.Run(m, interp.Config{Externs: extlib.Wrapped(dpmr.SDS), Mem: cfg, Seed: 1})
		if res.Kind != interp.ExitNormal {
			b.Fatal(res.Reason)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
}

func BenchmarkAblationWastefulShadowSizing(b *testing.B) {
	w := mustWorkload(b, "mcf")
	m, err := dpmr.Transform(w.Build(), dpmr.Config{Design: dpmr.SDS, WastefulShadowSizing: true})
	if err != nil {
		b.Fatal(err)
	}
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.Run(m, interp.Config{Externs: extlib.Wrapped(dpmr.SDS), Mem: benchMem, Seed: 1})
		if res.Kind != interp.ExitNormal {
			b.Fatal(res.Reason)
		}
		peak = res.Mem.HeapPeak
	}
	b.ReportMetric(float64(peak), "heap-peak-bytes")
}

func BenchmarkAblationOptimizerPipeline(b *testing.B) {
	// Figure 3.4's optimize stage: DPMR variants with and without the
	// post-transform optimizer.
	w := mustWorkload(b, "mcf")
	golden := goldenCycles(b, w)
	for _, on := range []bool{false, true} {
		on := on
		name := "opt-off"
		if on {
			name = "opt-on"
		}
		b.Run(name, func(b *testing.B) {
			r := harness.NewRunner()
			r.Optimize = on
			v := harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := r.RunOnce(w, v, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				cycles = o.Res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles/run")
			b.ReportMetric(float64(cycles)/float64(golden), "overhead-x")
		})
	}
}

// BenchmarkScheduler measures the deterministic interleaving scheduler
// (internal/sched): one scheduled chash group per iteration, its shared
// space drawn from one mem.Pool as the harness draws it. serial1 is the
// degenerate single-VM group (every draw picks the yielding thread, so no
// handovers — the walker baseline); interleavedN adds N-VM cooperative
// scheduling with yields at every load/store/atomic; the traced variant
// layers per-replica trace recording on top, and the checked variant also
// runs consist.Check on each trace: a whole concurrent-campaign trial.
// The serial/interleaved trials-per-second ratio is the scheduling cost,
// interleaved/traced isolates the recorder's share, and traced/checked
// the checker's. ns/switch divides the run's time by its scheduling draws.
func BenchmarkScheduler(b *testing.B) {
	w, err := workloads.ConcurrentByName("chash")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, threads int, traced, checked bool) {
		m := w.Build(threads)
		m.Freeze()
		pool := mem.NewPool(benchMem)
		var switches uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sched.Run(m, sched.Config{
				Threads:       threads,
				Seed:          1,
				TraceDisabled: !traced,
				VM:            interp.Config{Externs: extlib.Base(), Mem: benchMem, SpacePool: pool},
			})
			c := res.Combined
			if c.Kind != interp.ExitNormal || c.Code != 0 {
				b.Fatalf("chash (%d threads): %v code %d (%s)", threads, c.Kind, c.Code, c.Reason)
			}
			if checked {
				if rep := consist.Check(res.Trace); !rep.Clean() {
					b.Fatalf("chash (%d threads): consistency violations: %v", threads, rep.Violations)
				}
			}
			switches = res.Switches
		}
		b.ReportMetric(float64(switches), "switches/run")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(switches), "ns/switch")
		reportTrialsPerSec(b, 1)
	}
	b.Run("serial1", func(b *testing.B) { run(b, 1, false, false) })
	b.Run("interleaved3", func(b *testing.B) { run(b, 3, false, false) })
	b.Run("interleaved3traced", func(b *testing.B) { run(b, 3, true, false) })
	b.Run("interleaved3checked", func(b *testing.B) { run(b, 3, true, true) })
}
