package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/failpt"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/opt"
	"dpmr/internal/workloads"
)

const testStepLimit = 100_000_000

// runClean executes one group and fails the test on any abnormal exit.
func runClean(t *testing.T, m *ir.Module, threads int, seed int64) *Result {
	t.Helper()
	res := Run(m, Config{
		Threads: threads,
		Seed:    seed,
		VM:      interp.Config{StepLimit: testStepLimit, Seed: 7},
	})
	c := res.Combined
	if c.Kind != interp.ExitNormal || c.Code != 0 {
		t.Fatalf("%s threads=%d: %v code %d (%s)", m.Name, threads, c.Kind, c.Code, c.Reason)
	}
	return res
}

func TestConcurrentWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads.Concurrent() {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d", w.Name, threads), func(t *testing.T) {
				m := w.Build(threads)
				m.Freeze()
				res := runClean(t, m, threads, 42)
				rep := consist.Check(res.Trace)
				if !rep.Clean() {
					t.Fatalf("consistency violations: %v", rep.Violations)
				}
				if rep.Truncated {
					t.Fatalf("trace truncated at default limit (%d events)", rep.Events)
				}
				if rep.Events == 0 {
					t.Fatal("no shared-tier accesses recorded")
				}
			})
		}
	}
}

// TestScheduleDeterminism: the whole group outcome — per-thread results,
// combined result, trace stream, and switch count — must be a pure
// function of (seed, module, config).
func TestScheduleDeterminism(t *testing.T) {
	w := workloads.Concurrent()[0]
	m := w.Build(3)
	m.Freeze()
	a := runClean(t, m, 3, 1234)
	b := runClean(t, m, 3, 1234)
	if !reflect.DeepEqual(a.Combined, b.Combined) {
		t.Fatalf("combined results differ:\n%+v\n%+v", a.Combined, b.Combined)
	}
	if a.Switches != b.Switches {
		t.Fatalf("switch counts differ: %d vs %d", a.Switches, b.Switches)
	}
	for tid := range a.Threads {
		if !reflect.DeepEqual(a.Threads[tid], b.Threads[tid]) {
			t.Fatalf("thread %d results differ", tid)
		}
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for tid := 0; tid < a.Trace.Threads(); tid++ {
		if !reflect.DeepEqual(a.Trace.Thread(tid), b.Trace.Thread(tid)) {
			t.Fatalf("thread %d traces differ", tid)
		}
	}
}

// TestScheduleSeedVaries: different schedule seeds should still verify
// clean with identical program output (the workloads' interleaving-
// independence), while actually exploring different interleavings.
func TestScheduleSeedVaries(t *testing.T) {
	w := workloads.Concurrent()[2]
	m := w.Build(3)
	m.Freeze()
	var out []byte
	sawDifferentSchedule := false
	var firstSwitches uint64
	for i, seed := range []int64{1, 2, 3, 99} {
		res := runClean(t, m, 3, seed)
		if rep := consist.Check(res.Trace); !rep.Clean() {
			t.Fatalf("seed %d: violations: %v", seed, rep.Violations)
		}
		if i == 0 {
			out = res.Combined.Output
			firstSwitches = res.Switches
			continue
		}
		if !bytes.Equal(res.Combined.Output, out) {
			t.Fatalf("seed %d: output diverged across schedules", seed)
		}
		if res.Switches != firstSwitches {
			sawDifferentSchedule = true
		}
	}
	if !sawDifferentSchedule {
		t.Fatal("all seeds produced identical switch counts: scheduler seed seems inert")
	}
}

// TestDPMRTransformedConcurrent: the SDS/MDS-transformed workloads must
// run without spurious DPMR detections under interleaving — the fused
// replica binding on atomics is what makes the instrumentation itself
// race-free.
func TestDPMRTransformedConcurrent(t *testing.T) {
	for _, design := range []dpmr.Design{dpmr.SDS, dpmr.MDS} {
		for _, w := range workloads.Concurrent() {
			t.Run(fmt.Sprintf("%v/%s", design, w.Name), func(t *testing.T) {
				base := w.Build(3)
				base.Freeze()
				golden := runClean(t, base, 3, 5)

				xm, err := dpmr.Transform(w.Build(3), dpmr.Config{Design: design, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				opt.Run(xm)
				xm.Freeze()
				res := runClean(t, xm, 3, 5)
				if !bytes.Equal(res.Combined.Output, golden.Combined.Output) {
					t.Fatalf("transformed output diverges from golden")
				}
				if rep := consist.Check(res.Trace); !rep.Clean() {
					t.Fatalf("violations on transformed run: %v", rep.Violations)
				}
			})
		}
	}
}

// TestAbortOnThreadFailure: a worker trap aborts the whole group and
// classifies the combined result.
func TestAbortOnThreadFailure(t *testing.T) {
	m := crashWorkerModule()
	res := Run(m, Config{Threads: 2, Seed: 9, VM: interp.Config{StepLimit: testStepLimit}})
	if res.Combined.Kind != interp.ExitTrap {
		t.Fatalf("want trap, got %v (%s)", res.Combined.Kind, res.Combined.Reason)
	}
	if res.FailedThread != 1 {
		t.Fatalf("want failed thread 1, got %d", res.FailedThread)
	}
	if res.Threads[0] != nil {
		t.Fatalf("main should have been unwound, got %+v", res.Threads[0])
	}
}

// crashWorkerModule builds a group whose worker traps at once while main
// spins on a global the worker never sets.
func crashWorkerModule() *ir.Module {
	m := ir.NewModule("crashworker")
	b := ir.NewBuilder(m)
	m.AddGlobal("sink", ir.I64)

	b.Function("worker", ir.Void, []string{"tid"}, ir.I64)
	// Store through a null pointer: an immediate trap.
	null := b.IntToPtr(b.I64(0), ir.Ptr(ir.I64))
	b.Store(null, b.I64(1))
	b.Ret(nil)

	b.Function("main", ir.I64, nil)
	g := b.GlobalAddr("sink")
	b.While("spin", func() *ir.Reg {
		return b.Cmp(ir.CmpEQ, b.AtomicRMW(ir.AtomicAdd, g, b.I64(0)), b.I64(0))
	}, func() {})
	b.Ret(b.I64(0))
	m.Freeze()
	return m
}

// TestWalkerIsOracle: a concurrent run must refuse the compiled fast
// path; binding a Program changes nothing because Yield forces the
// walker.
func TestWalkerIsOracle(t *testing.T) {
	w := workloads.Concurrent()[0]
	m := w.Build(2)
	m.Freeze()
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	plain := runClean(t, m, 2, 77)
	res := Run(m, Config{
		Threads: 2,
		Seed:    77,
		VM:      interp.Config{StepLimit: testStepLimit, Seed: 7, Prog: prog},
	})
	if res.Combined.Kind != interp.ExitNormal {
		t.Fatalf("with Prog bound: %v (%s)", res.Combined.Kind, res.Combined.Reason)
	}
	if !reflect.DeepEqual(plain.Combined, res.Combined) {
		t.Fatalf("Prog-bound group diverged from walker group")
	}
}

// The two new failpoint sites must be registered so failpt's random
// torture schedules automatically include them.
func TestConcurrencyFailpointSitesRegistered(t *testing.T) {
	sites := failpt.Sites()
	for _, name := range []string{"mem/trace-drop", "interp/yield-stall"} {
		if _, ok := sites[name]; !ok {
			t.Errorf("site %s not registered", name)
		}
	}
}

// TestTraceDropFailpoint: dropped trace events are counted as metadata
// and never crash the run. (Lost writes may legitimately surface as
// thin-air reads downstream — that is the checker doing its job — so
// only run health and the drop count are asserted here.)
func TestTraceDropFailpoint(t *testing.T) {
	if err := failpt.Arm("mem/trace-drop=drop@2+"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
	w := workloads.Concurrent()[0]
	m := w.Build(2)
	m.Freeze()
	res := runClean(t, m, 2, 13)
	if res.Trace.Dropped() == 0 {
		t.Fatal("armed drop failpoint discarded nothing")
	}
	if rep := consist.Check(res.Trace); rep.Dropped != res.Trace.Dropped() {
		t.Fatalf("report drop count %d != recorder %d", rep.Dropped, res.Trace.Dropped())
	}
}

// TestYieldStallFailpoint: a stalled yield delays but never corrupts the
// handover — the group still runs to a clean deterministic finish.
func TestYieldStallFailpoint(t *testing.T) {
	if err := failpt.Arm("interp/yield-stall=stall(1)@3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
	w := workloads.Concurrent()[1]
	m := w.Build(2)
	m.Freeze()
	res := runClean(t, m, 2, 21)
	if failpt.Hits("interp/yield-stall") < 3 {
		t.Fatalf("yield-stall site hit only %d times", failpt.Hits("interp/yield-stall"))
	}
	if rep := consist.Check(res.Trace); !rep.Clean() {
		t.Fatalf("stall must not corrupt anything: %v", rep.Violations)
	}
}

// checkSeqs asserts the recorder precondition consist.CheckEvents relies
// on: each thread's Seqs strictly ascend, and together they cover
// 0..Len()-1 exactly once.
func checkSeqs(t *testing.T, tr *mem.TraceRec) {
	t.Helper()
	seen := make([]bool, tr.Len())
	for tid := 0; tid < tr.Threads(); tid++ {
		for i, e := range tr.Thread(tid) {
			if i > 0 && e.Seq <= tr.Thread(tid)[i-1].Seq {
				t.Fatalf("thread %d event %d: seq %d after %d", tid, i, e.Seq, tr.Thread(tid)[i-1].Seq)
			}
			if e.Seq >= tr.Len() || seen[e.Seq] {
				t.Fatalf("thread %d event %d: seq %d outside 0..%d or repeated", tid, i, e.Seq, tr.Len()-1)
			}
			seen[e.Seq] = true
		}
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("seq %d of 0..%d missing from every thread", seq, tr.Len()-1)
		}
	}
}

// TestTraceSeqsAscendingAndDense: recorded traces meet the checker's
// precondition for every concurrent workload and schedule.
func TestTraceSeqsAscendingAndDense(t *testing.T) {
	for _, w := range workloads.Concurrent() {
		for threads := 2; threads <= 4; threads++ {
			m := w.Build(threads)
			m.Freeze()
			for _, seed := range []int64{1, 2, 77} {
				t.Run(fmt.Sprintf("%s/%d/%d", w.Name, threads, seed), func(t *testing.T) {
					checkSeqs(t, runClean(t, m, threads, seed).Trace)
				})
			}
		}
	}
}

// TestTraceSeqsDenseAfterDrops: events the mem/trace-drop failpoint
// discards take no Seq, so the retained trace stays dense.
func TestTraceSeqsDenseAfterDrops(t *testing.T) {
	if err := failpt.Arm("mem/trace-drop=drop@3;mem/trace-drop=drop@40"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
	m := workloads.Concurrent()[1].Build(3)
	m.Freeze()
	res := Run(m, Config{Threads: 3, Seed: 4, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}})
	if got := res.Trace.Dropped(); got != 2 {
		t.Fatalf("dropped %d events, want 2", got)
	}
	checkSeqs(t, res.Trace)
}

// TestPooledRunMatchesFresh: groups drawing their shared space from one
// pool, back to back, replay exactly like groups on fresh spaces — across
// thread-count changes, an aborted group, a DPMR-transformed module, and
// with tracing on and off.
func TestPooledRunMatchesFresh(t *testing.T) {
	build := func(name string, threads int) *ir.Module {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := w.Build(threads)
		m.Freeze()
		return m
	}
	xm, err := dpmr.Transform(workloads.Concurrent()[2].Build(3), dpmr.Config{Design: dpmr.MDS, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opt.Run(xm)
	xm.Freeze()
	cases := []struct {
		name    string
		m       *ir.Module
		threads int
		traced  bool
	}{
		{"chash/4", build("chash", 4), 4, false},
		{"cpipe/2", build("cpipe", 2), 2, false},
		{"csteal/3", build("csteal", 3), 3, false},
		{"abort", crashWorkerModule(), 2, false},
		{"dpmr-mds", xm, 3, false},
		{"traced", build("cpipe", 3), 3, true},
	}
	memCfg := mem.Config{HeapBytes: 4 << 20, StackBytes: 256 << 10}
	pool := mem.NewPool(memCfg)
	for _, c := range cases {
		cfg := Config{
			Threads: c.threads, Seed: 5, TraceDisabled: !c.traced,
			VM: interp.Config{StepLimit: testStepLimit, Seed: 7, Mem: memCfg},
		}
		fresh := Run(c.m, cfg)
		cfg.VM.SpacePool = pool
		pooled := Run(c.m, cfg)
		for _, f := range []struct {
			field       string
			fresh, pool any
		}{
			{"Combined", fresh.Combined, pooled.Combined},
			{"Threads", fresh.Threads, pooled.Threads},
			{"FailedThread", fresh.FailedThread, pooled.FailedThread},
			{"Trace", fresh.Trace, pooled.Trace},
			{"Switches", fresh.Switches, pooled.Switches},
		} {
			if !reflect.DeepEqual(f.fresh, f.pool) {
				t.Errorf("%s: pooled %s differs:\nfresh:  %+v\npooled: %+v", c.name, f.field, f.fresh, f.pool)
			}
		}
	}
}

// TestPoolConfigMismatchRefused: a pool built for another geometry is
// refused by name, as interp.NewVM refuses it.
func TestPoolConfigMismatchRefused(t *testing.T) {
	m := workloads.Concurrent()[0].Build(2)
	m.Freeze()
	res := Run(m, Config{Threads: 2, VM: interp.Config{
		Mem:       mem.Config{HeapBytes: 4 << 20},
		SpacePool: mem.NewPool(mem.Config{HeapBytes: 8 << 20}),
	}})
	if c := res.Combined; c.Kind != interp.ExitError || !strings.Contains(c.Reason, "Config.VM.SpacePool") {
		t.Fatalf("want a named SpacePool refusal, got %v (%s)", c.Kind, c.Reason)
	}
}

// diffResults names the first Result field where got and want differ
// ("" when they are DeepEqual).
func diffResults(got, want *Result) string {
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"Combined", got.Combined, want.Combined},
		{"Threads", got.Threads, want.Threads},
		{"FailedThread", got.FailedThread, want.FailedThread},
		{"Trace", got.Trace, want.Trace},
		{"Switches", got.Switches, want.Switches},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s differs:\ngot:  %+v\nwant: %+v", f.field, f.got, f.want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "results differ outside the compared fields"
	}
	return ""
}

// TestRunMatchesReference: the direct handover replays the scheduler it
// replaced, referenceRun, exactly — the whole Result, Combined.Mem, trace
// and switch count included — over every concurrent workload, thread
// count and DPMR design, with and without a step limit that aborts groups
// on timeout, and over worker crashes that abort before every thread has
// been drawn.
func TestRunMatchesReference(t *testing.T) {
	memCfg := mem.Config{HeapBytes: 4 << 20, StackBytes: 256 << 10}
	pool := mem.NewPool(memCfg)
	kinds := map[interp.ExitKind]int{}
	check := func(t *testing.T, m *ir.Module, cfg Config) {
		t.Helper()
		cfg.VM.Mem = memCfg
		cfg.VM.SpacePool = pool
		want := referenceRun(m, cfg)
		got := Run(m, cfg)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("threads=%d seed=%d steplimit=%d: %s", cfg.Threads, cfg.Seed, cfg.VM.StepLimit, d)
		}
		kinds[got.Combined.Kind]++
	}

	designs := []struct {
		name      string
		transform bool
		design    dpmr.Design
	}{{"plain", false, 0}, {"sds", true, dpmr.SDS}, {"mds", true, dpmr.MDS}}
	for _, w := range workloads.Concurrent() {
		for threads := 1; threads <= 4; threads++ {
			for _, d := range designs {
				t.Run(fmt.Sprintf("%s/%d/%s", w.Name, threads, d.name), func(t *testing.T) {
					m := w.Build(threads)
					externs := extlib.Base()
					if d.transform {
						xm, err := dpmr.Transform(m, dpmr.Config{Design: d.design, Seed: 11})
						if err != nil {
							t.Fatal(err)
						}
						opt.Run(xm)
						m, externs = xm, extlib.Wrapped(d.design)
					}
					m.Freeze()
					for seed := int64(1); seed <= 6; seed++ {
						for _, limit := range []uint64{0, 3000} {
							check(t, m, Config{Threads: threads, Seed: seed, VM: interp.Config{
								Externs: externs, Seed: seed + 100, StepLimit: limit,
							}})
						}
					}
				})
			}
		}
	}
	m := crashWorkerModule()
	for threads := 2; threads <= 4; threads++ {
		t.Run(fmt.Sprintf("crashworker/%d", threads), func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				check(t, m, Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit}})
			}
		})
	}
	// The grid must reach clean exits, timeout aborts and crash aborts.
	for _, k := range []interp.ExitKind{interp.ExitNormal, interp.ExitTimeout, interp.ExitTrap} {
		if kinds[k] == 0 {
			t.Errorf("no group ended %v: kinds seen %v", k, kinds)
		}
	}
}

// TestAbortLeaksNoGoroutines: an aborted group leaves no goroutine
// behind. Threads that had started unwind before Run returns, and threads
// never drawn before the abort are never started, so their result is nil.
func TestAbortLeaksNoGoroutines(t *testing.T) {
	const threads = 4
	m := crashWorkerModule()
	before := runtime.NumGoroutine()
	neverDrawn := 0
	for seed := int64(0); seed < 50; seed++ {
		res := Run(m, Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit}})
		if res.Combined.Kind != interp.ExitTrap || res.FailedThread < 1 {
			t.Fatalf("seed %d: want a worker trap, got %v in thread %d (%s)", seed, res.Combined.Kind, res.FailedThread, res.Combined.Reason)
		}
		// Replay the draws: main yields at every spin iteration and each
		// worker yields once before its trapping store, so the group
		// aborts when a worker is drawn a second time. The three threads
		// left live are then switched to once each.
		rng := rand.New(rand.NewSource(seed))
		drawn := make([]bool, threads)
		draws := uint64(0)
		for {
			draws++
			i := rng.Intn(threads)
			if i > 0 && drawn[i] {
				break
			}
			drawn[i] = true
		}
		if want := draws + threads - 1; res.Switches != want {
			t.Fatalf("seed %d: %d switches, replayed draws give %d", seed, res.Switches, want)
		}
		for tid, r := range res.Threads {
			if tid != res.FailedThread && r != nil {
				t.Fatalf("seed %d: aborted thread %d has a result: %+v", seed, tid, r)
			}
			if !drawn[tid] {
				neverDrawn++
			}
		}
	}
	if neverDrawn == 0 {
		t.Fatal("every thread was drawn before every abort: the never-started case went untested")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew from %d to %d over 50 aborted groups", before, n)
	}
}
