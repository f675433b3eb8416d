package sched

import (
	"bytes"
	"fmt"
	"io"
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
// combined result, trace stream (its length, digest, metadata and
// report), and switch count — must be a pure function of (seed, module,
// config).
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
	if ta, tb := summarizeTrace(a.Trace), summarizeTrace(b.Trace); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("traces differ:\n%+v\n%+v", ta, tb)
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

// TestWalkerIsOracle: Run refuses by name a plain program, which would
// run without yielding, and the tree-walker's hooks; it compiles a nil
// Prog itself, and that group and one given a yielding program both
// replay the walker's group exactly. Under a Yield hook a VM still
// tree-walks rather than bind a plain program, and binds a yielding one.
func TestWalkerIsOracle(t *testing.T) {
	w := workloads.Concurrent()[0]
	m := w.Build(2)
	m.Freeze()
	plain, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	yielding, err := interp.CompileYielding(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(prog *interp.Program) Config {
		return Config{Threads: 2, Seed: 77, VM: interp.Config{StepLimit: testStepLimit, Seed: 7, Prog: prog}}
	}
	walker := handoverRun(m, cfg(nil))
	if c := walker.Combined; c.Kind != interp.ExitNormal || c.Code != 0 {
		t.Fatalf("walker group: %v code %d (%s)", c.Kind, c.Code, c.Reason)
	}
	for _, c := range []struct {
		name  string
		prog  *interp.Program
		bound bool
	}{{"plain", plain, false}, {"yielding", yielding, true}} {
		vm, err := interp.NewVM(m, interp.Config{Prog: c.prog, Yield: func() bool { return false }})
		if err != nil {
			t.Fatal(err)
		}
		if vm.Compiled() != c.bound {
			t.Errorf("%s program under Yield: bound %v, want %v", c.name, vm.Compiled(), c.bound)
		}
	}
	refusals := map[string]Config{"plain program": cfg(plain)}
	traced := cfg(nil)
	traced.VM.Trace = io.Discard
	refusals["Trace"] = traced
	profiled := cfg(nil)
	profiled.VM.OpStats = interp.NewOpStats()
	refusals["OpStats"] = profiled
	for name, c := range refusals {
		res := Run(m, c)
		if r := res.Combined; r.Kind != interp.ExitError || !strings.Contains(r.Reason, strings.Fields(name)[0]) {
			t.Errorf("%s: want a named refusal, got %v (%s)", name, r.Kind, r.Reason)
		}
	}
	for name, prog := range map[string]*interp.Program{"nil Prog": nil, "yielding Prog": yielding} {
		if d := diffResults(Run(m, cfg(prog)), walker); d != "" {
			t.Errorf("%s: group diverged from the walker's: %s", name, d)
		}
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
// handover — the group still runs to a clean deterministic finish, on
// the walker oracle and on Run's compiled loop alike.
func TestYieldStallFailpoint(t *testing.T) {
	t.Cleanup(failpt.Disarm)
	w := workloads.Concurrent()[1]
	m := w.Build(2)
	m.Freeze()
	prog, err := interp.CompileYielding(m)
	if err != nil {
		t.Fatal(err)
	}
	var walker *Result
	for _, p := range []*interp.Program{nil, prog} {
		if err := failpt.Arm("interp/yield-stall=stall(1)@3"); err != nil {
			t.Fatal(err)
		}
		run := Run
		if p == nil {
			run = handoverRun
		}
		res := run(m, Config{Threads: 2, Seed: 21, VM: interp.Config{StepLimit: testStepLimit, Seed: 7, Prog: p}})
		if c := res.Combined; c.Kind != interp.ExitNormal || c.Code != 0 {
			t.Fatalf("compiled %v: %v code %d (%s)", p != nil, c.Kind, c.Code, c.Reason)
		}
		if failpt.Hits("interp/yield-stall") < 3 {
			t.Fatalf("compiled %v: yield-stall site hit only %d times", p != nil, failpt.Hits("interp/yield-stall"))
		}
		if rep := consist.Check(res.Trace); !rep.Clean() {
			t.Fatalf("compiled %v: stall must not corrupt anything: %v", p != nil, rep.Violations)
		}
		if walker == nil {
			walker = res
		} else if d := diffResults(res, walker); d != "" {
			t.Fatalf("stalled compiled group diverged from the stalled walker group: %s", d)
		}
	}
}

// tappedRun runs m under cfg on a pool whose one recorder is tapped, and
// returns the result with every event the run kept, per thread in
// program order.
func tappedRun(t *testing.T, m *ir.Module, cfg Config) (*Result, [][]mem.TraceEvent) {
	t.Helper()
	cfg.VM.SpacePool = mem.NewPool(cfg.VM.Mem)
	threads := make([][]mem.TraceEvent, cfg.Threads)
	rec := cfg.VM.SpacePool.GetTrace(cfg.Threads, cfg.TraceLimit)
	rec.SetTap(func(tid int, e mem.TraceEvent) { threads[tid] = append(threads[tid], e) })
	cfg.VM.SpacePool.PutTrace(rec)
	res := Run(m, cfg)
	if res.Trace != rec {
		t.Fatal("the run did not draw the tapped recorder from its pool")
	}
	rec.SetTap(nil)
	return res, threads
}

// checkSeqs asserts the recorder precondition consist.CheckEvents relies
// on, over the events a tapped run kept: each thread's Seqs strictly
// ascend, and together they cover 0..Len()-1 exactly once. Replaying
// them in Seq order through a new recorder then reproduces the live
// recorder's digest and report, so the stream the tap saw is the one the
// run checked.
func checkSeqs(t *testing.T, tr *mem.TraceRec, threads [][]mem.TraceEvent) {
	t.Helper()
	order := make([]mem.TraceEvent, tr.Len())
	tids := make([]int, tr.Len())
	seen := make([]bool, tr.Len())
	for tid, evs := range threads {
		for i, e := range evs {
			if i > 0 && e.Seq <= evs[i-1].Seq {
				t.Fatalf("thread %d event %d: seq %d after %d", tid, i, e.Seq, evs[i-1].Seq)
			}
			if e.Seq >= tr.Len() || seen[e.Seq] {
				t.Fatalf("thread %d event %d: seq %d outside 0..%d or repeated", tid, i, e.Seq, tr.Len()-1)
			}
			seen[e.Seq] = true
			order[e.Seq], tids[e.Seq] = e, tid
		}
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("seq %d of 0..%d missing from every thread", seq, tr.Len()-1)
		}
	}
	replayed := mem.NewTraceRec(len(threads), 0)
	for seq, e := range order {
		replayed.Replay(tids[seq], e)
	}
	got, want := consist.Check(replayed), consist.Check(tr)
	got.Truncated, got.Dropped = want.Truncated, want.Dropped // run metadata, not events
	if replayed.Digest() != tr.Digest() || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed tap digest %#x, report %+v; live digest %#x, report %+v", replayed.Digest(), got, tr.Digest(), want)
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
					res, evs := tappedRun(t, m, Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}})
					if c := res.Combined; c.Kind != interp.ExitNormal || c.Code != 0 {
						t.Fatalf("%v code %d (%s)", c.Kind, c.Code, c.Reason)
					}
					checkSeqs(t, res.Trace, evs)
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
	res, evs := tappedRun(t, m, Config{Threads: 3, Seed: 4, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}})
	if got := res.Trace.Dropped(); got != 2 {
		t.Fatalf("dropped %d events, want 2", got)
	}
	checkSeqs(t, res.Trace, evs)
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
			{"Trace", summarizeTrace(fresh.Trace), summarizeTrace(pooled.Trace)},
			{"Switches", fresh.Switches, pooled.Switches},
		} {
			if !reflect.DeepEqual(f.fresh, f.pool) {
				t.Errorf("%s: pooled %s differs:\nfresh:  %+v\npooled: %+v", c.name, f.field, f.fresh, f.pool)
			}
		}
	}
}

// TestRecycledTraceMatchesFresh: runs that draw their recorder from one
// pool, each handing it back before the next, record exactly what runs on
// fresh recorders record — across growing and shrinking thread counts,
// the default and a truncating trace limit, failpoint-dropped events, and
// a crash abort whose worker records nothing into a buffer an earlier
// run filled.
func TestRecycledTraceMatchesFresh(t *testing.T) {
	memCfg := mem.Config{HeapBytes: 4 << 20, StackBytes: 256 << 10}
	pool := mem.NewPool(memCfg)
	steps := []struct {
		workload string
		threads  int
		limit    int
		drops    string // mem/trace-drop schedule armed for both runs ("" = none)
	}{
		{"chash", 4, 0, ""},
		{"crashworker", 2, 0, ""},
		{"cpipe", 1, 0, "mem/trace-drop=drop@5"},
		{"csteal", 3, 64, ""},
		{"chash", 2, 64, "mem/trace-drop=drop@2;mem/trace-drop=drop@30+"},
		{"cpipe", 4, 0, "mem/trace-drop=drop@17"},
		{"csteal", 1, 64, ""},
		{"chash", 3, 0, ""},
		{"cpipe", 2, 0, ""},
	}
	run := func(m *ir.Module, threads, limit int, drops string, p *mem.Pool) *Result {
		t.Helper()
		if drops != "" {
			if err := failpt.Arm(drops); err != nil {
				t.Fatal(err)
			}
			defer failpt.Disarm()
		}
		return Run(m, Config{
			Threads: threads, Seed: 9, TraceLimit: limit,
			VM: interp.Config{StepLimit: testStepLimit, Seed: 7, Mem: memCfg, SpacePool: p},
		})
	}
	sawTruncated, sawDropped := false, false
	var recycled *mem.TraceRec
	for i, st := range steps {
		m := crashWorkerModule()
		if st.workload != m.Name {
			w, err := workloads.ConcurrentByName(st.workload)
			if err != nil {
				t.Fatal(err)
			}
			m = w.Build(st.threads)
			m.Freeze()
		}
		want := run(m, st.threads, st.limit, st.drops, nil)
		got := run(m, st.threads, st.limit, st.drops, pool)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("step %d (%s/%d, limit %d, drops %q): %s", i, st.workload, st.threads, st.limit, st.drops, d)
		}
		if recycled == nil {
			recycled = got.Trace
		} else if got.Trace != recycled {
			t.Fatalf("step %d drew a new recorder from a pool holding one", i)
		}
		sawTruncated = sawTruncated || got.Trace.Truncated()
		sawDropped = sawDropped || got.Trace.Dropped() > 0
		pool.PutTrace(got.Trace)
	}
	if !sawTruncated || !sawDropped {
		t.Fatalf("sequence never truncated (%v) or never dropped (%v) a trace", sawTruncated, sawDropped)
	}
	// The sequence handed one recorder back and forth: a further run
	// reuses it rather than building another.
	tr := pool.GetTrace(2, 0)
	if tr != recycled || tr.Threads() != 2 || tr.Len() != 0 || tr.Digest() != 0 || len(tr.Mismatches()) != 0 {
		t.Fatalf("GetTrace after the sequence: %d threads, %d events, digest %#x, %d mismatches, recycled %v; want a reset recycled recorder",
			tr.Threads(), tr.Len(), tr.Digest(), len(tr.Mismatches()), tr == recycled)
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

// traceSummary is what a recorder retains of one run: its shape, the
// digest of every kept event, its metadata and its report. Two runs
// whose recorders summarize alike kept the same events.
type traceSummary struct {
	Threads   int
	Len       uint64
	Digest    uint64
	Dropped   uint64
	Truncated bool
	Report    *consist.Report
}

// summarizeTrace summarizes tr (nil for a run without one).
func summarizeTrace(tr *mem.TraceRec) *traceSummary {
	if tr == nil {
		return nil
	}
	return &traceSummary{tr.Threads(), tr.Len(), tr.Digest(), tr.Dropped(), tr.Truncated(), consist.Check(tr)}
}

// diffResults names the first Result field where got and want differ
// ("" when they are DeepEqual, comparing traces by summarizeTrace).
func diffResults(got, want *Result) string {
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"Combined", got.Combined, want.Combined},
		{"Threads", got.Threads, want.Threads},
		{"FailedThread", got.FailedThread, want.FailedThread},
		{"Trace", summarizeTrace(got.Trace), summarizeTrace(want.Trace)},
		{"Switches", got.Switches, want.Switches},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s differs:\ngot:  %+v\nwant: %+v", f.field, f.got, f.want)
		}
	}
	g, w := *got, *want
	g.Trace, w.Trace = nil, nil
	if !reflect.DeepEqual(g, w) {
		return "results differ outside the compared fields"
	}
	return ""
}

// runGrid calls check on every configuration of the scheduler grid and
// tallies how the groups it returns ended: every concurrent workload at 1
// to 4 threads, plain and DPMR-transformed (SDS, MDS), six schedule
// seeds, with no step limit and with one that aborts groups on timeout,
// plus worker crashes that abort before every thread has been drawn —
// 582 configurations in all. The grid must reach clean exits, timeout
// aborts and crash aborts.
func runGrid(t *testing.T, check func(t *testing.T, m *ir.Module, cfg Config) *Result) {
	kinds := map[interp.ExitKind]int{}
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
							res := check(t, m, Config{Threads: threads, Seed: seed, VM: interp.Config{
								Externs: externs, Seed: seed + 100, StepLimit: limit,
							}})
							kinds[res.Combined.Kind]++
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
				res := check(t, m, Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit}})
				kinds[res.Combined.Kind]++
			}
		})
	}
	for _, k := range []interp.ExitKind{interp.ExitNormal, interp.ExitTimeout, interp.ExitTrap} {
		if kinds[k] == 0 {
			t.Errorf("no group ended %v: kinds seen %v", k, kinds)
		}
	}
}

// TestRunMatchesReference: the direct handover replays the scheduler it
// replaced, referenceRun, exactly — the whole Result, Combined.Mem, trace
// and switch count included — over the whole grid.
func TestRunMatchesReference(t *testing.T) {
	memCfg := mem.Config{HeapBytes: 4 << 20, StackBytes: 256 << 10}
	pool := mem.NewPool(memCfg)
	runGrid(t, func(t *testing.T, m *ir.Module, cfg Config) *Result {
		t.Helper()
		cfg.VM.Mem = memCfg
		cfg.VM.SpacePool = pool
		want := referenceRun(m, cfg)
		got := Run(m, cfg)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("threads=%d seed=%d steplimit=%d: %s", cfg.Threads, cfg.Seed, cfg.VM.StepLimit, d)
		}
		return got
	})
}

// TestCompiledRunMatchesWalker: Run's single loop over a yielding
// program (interp.CompileYielding) replays the walker oracle,
// handoverRun tree-walking the same group, exactly — the whole Result,
// trace and switch count included — over the whole grid. Both sides run
// unpooled.
func TestCompiledRunMatchesWalker(t *testing.T) {
	memCfg := mem.Config{HeapBytes: 4 << 20, StackBytes: 256 << 10}
	progs := map[*ir.Module]*interp.Program{}
	runGrid(t, func(t *testing.T, m *ir.Module, cfg Config) *Result {
		t.Helper()
		prog, ok := progs[m]
		if !ok {
			var err error
			if prog, err = interp.CompileYielding(m); err != nil {
				t.Fatal(err)
			}
			progs[m] = prog
		}
		cfg.VM.Mem = memCfg
		want := handoverRun(m, cfg)
		cfg.VM.Prog = prog
		got := Run(m, cfg)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("threads=%d seed=%d steplimit=%d: %s", cfg.Threads, cfg.Seed, cfg.VM.StepLimit, d)
		}
		return got
	})
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
