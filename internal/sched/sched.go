// Package sched runs concurrent multi-VM workloads under a seeded,
// deterministic interleaving scheduler.
//
// A concurrent group is N interpreter VMs sharing one mem.Space: thread 0
// runs main(), threads 1..N-1 run worker(tid). Execution is cooperative —
// every VM yields at each load, store, atomic, and fence (Config.Yield in
// interp) — and strictly serialized: the whole group runs on the
// goroutine that calls Run, one VM at a time, so it contains no Go-level
// data races even though the simulated threads race freely over shared
// simulated memory. Every thread runs compiled code (a Program from
// interp.CompileYielding, which Run compiles itself when Config.VM.Prog is
// nil) under interp's Start and Resume. At every yield the running thread
// draws the next runnable thread from a PRNG seeded with the schedule
// seed: drawing itself, it carries on in place; drawing another, it parks,
// and Run's loop resumes the thread drawn. The interleaving is thus a
// pure function of (seed, program): the same trial replays
// bit-identically at any host parallelism, which is what extends the
// harness's byte-identity guarantees (shard/merge/journal/coordinator) to
// the concurrent kind.
//
// The first thread to exit abnormally (trap, DPMR detection, timeout)
// aborts the group and its exit classifies the trial: Run switches to
// each thread still live once, as a draw would, and drops it. A thread
// never drawn never runs.
//
// The yielding program yields at the same instructions and clocks as the
// tree-walker. Tests keep two oracles of the walker era — the scheduler
// goroutine of referenceRun and the goroutine-per-thread handover of
// handoverRun — and hold Run to both over every concurrent workload,
// thread count, DPMR design and abort path, down to the trace and the
// switch count.
package sched

import (
	"fmt"
	"math/rand"

	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// WorkerFunc is the entry point worker threads run: worker(tid).
const WorkerFunc = "worker"

// Config configures one concurrent group run.
type Config struct {
	// Threads is the total VM count (>= 1): one main plus Threads-1
	// workers. A module without a worker function admits only Threads=1.
	Threads int
	// Seed seeds the interleaving PRNG. It is independent of the VM
	// PRNG seed (Config.VM.Seed): the same program can be explored under
	// many schedules and vice versa.
	Seed int64
	// TraceLimit caps each thread's checked shared-tier accesses
	// (0 = mem.NewTraceRec's default). Overflow marks the trace
	// truncated rather than failing the run.
	TraceLimit int
	// TraceDisabled skips the trace recorder, and with it the
	// consistency check, entirely (benchmarks).
	TraceDisabled bool
	// VM is the per-thread VM configuration. Mem sizes the one shared
	// space; SpacePool, when set, supplies that space and receives it
	// back after the run, and its config must match Mem. It also supplies
	// the trace recorder, which the run lends to its caller as
	// Result.Trace. Prog is the module's yielding program
	// (interp.CompileYielding), which every thread runs; when nil, Run
	// compiles one, and it refuses a plain program (interp.Compile), which
	// would run without yielding. Trace and OpStats, which need the
	// tree-walker, are refused too. Seed seeds thread 0, with worker seeds
	// derived per thread; SharedSpace, SharedGlobals, Yield, and ThreadID
	// are managed by the scheduler and must be unset (Yield is the
	// scheduler's draw-and-handover hook). StepLimit bounds each thread
	// separately.
	VM interp.Config
}

// Result is the outcome of one concurrent group run.
type Result struct {
	// Combined classifies the whole group: the first abnormal thread
	// exit, or a normal exit carrying thread 0's code. Steps and Cycles
	// sum over threads (interleaving is serial, so the sum is the
	// group's clock); Output concatenates per-thread output in thread
	// order; Mem is the shared space's statistics.
	Combined *interp.Result
	// Threads holds each thread's own result; aborted threads (unwound
	// or never started after another thread failed first) are nil.
	Threads []*interp.Result
	// FailedThread is the thread whose exit classified an abnormal
	// Combined (-1 when the group exited normally).
	FailedThread int
	// Trace is the recorder that checked the run's shared-tier accesses
	// (nil when disabled); consist.Check reads its verdict. When
	// the run drew it from Config.VM.SpacePool, it is on loan: the caller
	// may hand it back with PutTrace once done with it, and must not
	// touch it afterwards.
	Trace *mem.TraceRec
	// Switches counts scheduling draws: the first, one at every yield
	// (a thread may draw itself) and one after every exit the group
	// survives, plus one per thread still live when the group aborts.
	Switches uint64
}

// thread is one scheduled VM.
type thread struct {
	id int
	vm *interp.VM
}

// group is the state of one concurrent run.
type group struct {
	rng   *rand.Rand
	live  []*thread // threads not yet exited, in thread order
	cur   int       // index in live of the thread last drawn
	space *mem.Space
	trace *mem.TraceRec
	res   *Result
}

// pick draws the next thread among the live ones and switches the space
// to it: the draw, the stack window, the trace label and the switch count,
// in that order at every handover.
func (g *group) pick() *thread {
	g.cur = g.rng.Intn(len(g.live))
	t := g.live[g.cur]
	g.switchTo(t)
	return t
}

func (g *group) switchTo(t *thread) {
	g.space.SwitchStack(t.id)
	if g.trace != nil {
		g.trace.SetThread(t.id)
	}
	g.res.Switches++
}

// run drives the group from its first draw to its end: it resumes the
// thread drawn until that thread parks, having drawn another, or exits.
// An exit leaves the live set; the first abnormal one, or the last exit,
// ends the group, and any other draws the next thread.
func (g *group) run() {
	t := g.pick()
	for {
		r := t.vm.Resume()
		if r == nil {
			t = g.live[g.cur]
			continue
		}
		g.live = append(g.live[:g.cur], g.live[g.cur+1:]...)
		g.res.Threads[t.id] = r
		if r.Kind != interp.ExitNormal {
			g.res.FailedThread = t.id
			return
		}
		if len(g.live) == 0 {
			return
		}
		t = g.pick()
	}
}

// derivedSeed spreads the base VM seed across worker threads (splitmix
// increment) so threads draw independent RandInt streams.
func derivedSeed(base int64, tid int) int64 {
	return base + int64(tid)*-0x61C8864680B583EB
}

// Run executes one concurrent group of m and returns its outcome. Setup
// failures (bad config, missing worker function) are reported as an
// ExitError Combined result, mirroring interp.Run.
func Run(m *ir.Module, cfg Config) *Result {
	fail := func(format string, args ...any) *Result {
		return &Result{
			Combined:     &interp.Result{Kind: interp.ExitError, Reason: fmt.Sprintf(format, args...)},
			FailedThread: -1,
		}
	}
	n := cfg.Threads
	if n < 1 {
		return fail("sched: Threads must be >= 1, got %d", n)
	}
	if cfg.VM.SharedSpace != nil || cfg.VM.SharedGlobals != nil || cfg.VM.Yield != nil {
		return fail("sched: Config.VM space and yield fields are scheduler-managed")
	}
	pool := cfg.VM.SpacePool
	if pool != nil && pool.Config() != cfg.VM.Mem.WithDefaults() {
		return fail("sched: Config.VM.SpacePool built for %+v, but Config.VM.Mem wants %+v", pool.Config(), cfg.VM.Mem.WithDefaults())
	}
	if cfg.VM.Trace != nil || cfg.VM.OpStats != nil {
		return fail("sched: Config.VM.Trace and OpStats need the tree-walker, and Run runs compiled code only")
	}
	mainFn := m.Func("main")
	if mainFn == nil {
		return fail("sched: no main function")
	}
	workerFn := m.Func(WorkerFunc)
	if n > 1 {
		if workerFn == nil {
			return fail("sched: %d threads but module has no %s function", n, WorkerFunc)
		}
		if len(workerFn.Params) != 1 {
			return fail("sched: %s must take one (tid) parameter, has %d", WorkerFunc, len(workerFn.Params))
		}
	}
	prog := cfg.VM.Prog
	if prog == nil {
		var err error
		if prog, err = interp.CompileYielding(m); err != nil {
			return fail("sched: %v", err)
		}
	} else if !prog.Yielding() {
		return fail("sched: Config.VM.Prog is a plain program; Run needs one from interp.CompileYielding")
	}

	// The shared space comes from the pool when there is one, and goes
	// back (Put resets it) once every thread has exited and its
	// statistics are read. The recorder comes from the same pool; it
	// outlives the run as Result.Trace, so only the caller can return it.
	var space *mem.Space
	if pool != nil {
		space = pool.Get()
		defer pool.Put(space)
	} else {
		space = mem.NewSpace(cfg.VM.Mem)
	}
	if err := space.PartitionStack(n); err != nil {
		return fail("sched: %v", err)
	}
	var trace *mem.TraceRec
	if !cfg.TraceDisabled {
		if pool != nil {
			trace = pool.GetTrace(n, cfg.TraceLimit)
		} else {
			trace = mem.NewTraceRec(n, cfg.TraceLimit)
		}
		space.SetTrace(trace)
	}

	g := &group{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		live:  make([]*thread, n),
		space: space,
		trace: trace,
		res:   &Result{Threads: make([]*interp.Result, n), FailedThread: -1, Trace: trace},
	}
	for tid := 0; tid < n; tid++ {
		t := &thread{id: tid}
		g.live[tid] = t
		vcfg := cfg.VM
		vcfg.Prog = prog
		vcfg.SpacePool = nil
		vcfg.SharedSpace = space
		vcfg.ThreadID = tid
		// The draw-and-handover hook: t parks whenever it draws another
		// thread, which run resumes next.
		vcfg.Yield = func() bool { return g.pick() != t }
		if tid > 0 {
			vcfg.Seed = derivedSeed(cfg.VM.Seed, tid)
			vcfg.SharedGlobals = g.live[0].vm.GlobalTable()
		}
		// Globals must land in thread 0's part of the setup, so build VMs
		// in thread order with window 0 current (allocas during argv
		// materialization land in thread 0's window; workloads take no
		// args, so in practice setup allocates globals only).
		vm, err := interp.NewVM(m, vcfg)
		if err == nil {
			if tid == 0 {
				err = vm.StartMain()
			} else {
				err = vm.Start(workerFn, []uint64{uint64(tid)})
			}
		}
		if err != nil {
			return fail("sched: thread %d: %v", tid, err)
		}
		t.vm = vm
	}

	// Run the group to its end. If it ended on an abnormal exit, every
	// thread still live is switched to once, as a draw would, and dropped
	// with a nil result, whether or not it had started.
	g.run()
	for _, t := range g.live {
		g.switchTo(t)
	}
	res := g.res

	// Combine per-thread results into the group classification.
	comb := &interp.Result{Kind: interp.ExitNormal}
	if res.FailedThread >= 0 {
		f := res.Threads[res.FailedThread]
		comb.Kind = f.Kind
		comb.Reason = fmt.Sprintf("thread %d: %s", res.FailedThread, f.Reason)
	} else {
		// A normal group exit carries the first nonzero thread exit code
		// (in thread order), so a worker's error-signalling exit(2) is as
		// visible to natural-detection classification as main's.
		for _, r := range res.Threads {
			if r != nil && r.Code != 0 {
				comb.Code = r.Code
				break
			}
		}
	}
	for _, r := range res.Threads {
		if r == nil {
			continue
		}
		comb.Steps += r.Steps
		comb.Cycles += r.Cycles
		comb.Output = append(comb.Output, r.Output...)
		if r.FaultSeen && (!comb.FaultSeen || r.FaultCycle < comb.FaultCycle) {
			comb.FaultSeen = true
			comb.FaultCycle = r.FaultCycle
		}
	}
	comb.Mem = space.Stats()
	res.Combined = comb
	return res
}
