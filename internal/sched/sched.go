// Package sched runs concurrent multi-VM workloads under a seeded,
// deterministic interleaving scheduler.
//
// A concurrent group is N interpreter VMs sharing one mem.Space: thread 0
// runs main(), threads 1..N-1 run worker(tid). Execution is cooperative —
// every VM yields at each load, store, atomic, and fence (Config.Yield in
// interp) — and strictly serialized: exactly one VM executes at any
// instant, so the group contains no Go-level data races even though the
// simulated threads race freely over shared simulated memory. There is no
// scheduler goroutine. At every yield the running thread itself draws the
// next runnable thread from a PRNG seeded with the schedule seed: drawing
// itself, it carries on with no goroutine switch; drawing another, it
// hands control straight to that thread's goroutine and blocks until it
// is drawn again. The interleaving is thus a pure function of (seed,
// program): the same trial replays bit-identically at any host
// parallelism, which is what extends the harness's byte-identity
// guarantees (shard/merge/journal/coordinator) to the concurrent kind.
//
// The first thread to exit abnormally (trap, DPMR detection, timeout)
// aborts the group and its exit classifies the trial: Run resumes each
// thread that had started and is still live, once, to unwind via a
// sentinel panic. A thread never drawn is never started. Because the
// walker is the oracle for concurrent execution (the Yield hook routes
// every VM through the tree-walking loop), compiled-engine divergence
// cannot leak into concurrent results.
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
	// TraceLimit caps each thread's recorded shared-tier accesses
	// (0 = mem.NewTraceRec's default). Overflow marks the trace
	// truncated rather than failing the run.
	TraceLimit int
	// TraceDisabled skips trace recording entirely (benchmarks).
	TraceDisabled bool
	// VM is the per-thread VM configuration. Mem sizes the one shared
	// space; SpacePool, when set, supplies that space and receives it
	// back after the run, and its config must match Mem. Seed seeds
	// thread 0, with worker seeds derived per thread; SharedSpace,
	// SharedGlobals, Yield, and ThreadID are managed by the scheduler and
	// must be unset (Yield is the scheduler's draw-and-handover hook).
	// StepLimit bounds each thread separately.
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
	// Trace is the shared-tier access trace (nil when disabled).
	Trace *mem.TraceRec
	// Switches counts scheduling draws: the first, one at every yield
	// (a thread may draw itself) and one after every exit the group
	// survives, plus one per thread still live when the group aborts.
	Switches uint64
}

// abortUnwind is the sentinel panic that unwinds a parked thread after
// the group has aborted.
type abortUnwind struct{}

// thread is one scheduled VM's control block. Its goroutine is spawned
// the first time the thread is drawn; from then on it blocks on resume
// whenever it has handed control to another thread.
type thread struct {
	id      int
	vm      *interp.VM
	resume  chan struct{}
	started bool
}

// group is the state of one concurrent run. Exactly one goroutine touches
// it at a time: the one holding control, which is a thread between two
// handovers, or Run up to its first handover and after the group ends.
// Every transfer of control is a go statement or a channel operation,
// which orders the accesses.
type group struct {
	rng      *rand.Rand
	live     []*thread // threads not yet exited, in thread order
	cur      int       // index in live of the thread last drawn
	space    *mem.Space
	trace    *mem.TraceRec
	workerFn *ir.Func
	res      *Result
	aborted  bool          // set by Run before it resumes threads to unwind
	wake     chan struct{} // hands control back to Run
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

// handover gives control to t, starting its goroutine on its first draw.
// The caller must not touch g again until control comes back to it.
func (g *group) handover(t *thread) {
	if !t.started {
		t.started = true
		go g.run(t)
		return
	}
	t.resume <- struct{}{}
}

// yield is t's Yield hook: t draws the next thread itself. Drawing itself
// returns at once; otherwise t hands control over and blocks until it is
// drawn again, or panics the abort sentinel if the group aborted
// meanwhile.
func (g *group) yield(t *thread) {
	next := g.pick()
	if next == t {
		return
	}
	g.handover(next)
	<-t.resume
	if g.aborted {
		panic(abortUnwind{})
	}
}

// run is t's goroutine: it runs t's VM to its exit, or acknowledges Run's
// abort once the VM has unwound.
func (g *group) run(t *thread) {
	if r, unwound := g.exec(t); unwound {
		g.wake <- struct{}{}
	} else {
		g.exit(t, r)
	}
}

func (g *group) exec(t *thread) (r *interp.Result, unwound bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(abortUnwind); !ok {
				panic(p)
			}
			unwound = true
		}
	}()
	if t.id == 0 {
		return t.vm.Run(), false
	}
	return t.vm.RunEntry(g.workerFn, []uint64{uint64(t.id)}), false
}

// exit removes the exiting thread t from the live set and records its
// result. The first abnormal exit, or the last exit, hands control back
// to Run; any other exit draws the next thread.
func (g *group) exit(t *thread, r *interp.Result) {
	g.live = append(g.live[:g.cur], g.live[g.cur+1:]...)
	g.res.Threads[t.id] = r
	if r.Kind != interp.ExitNormal {
		g.res.FailedThread = t.id
	} else if len(g.live) > 0 {
		g.handover(g.pick())
		return
	}
	g.wake <- struct{}{}
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

	// The shared space comes from the pool when there is one, and goes
	// back (Put resets it) once every thread has exited and its
	// statistics are read.
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
		trace = mem.NewTraceRec(n, cfg.TraceLimit)
		space.SetTrace(trace)
	}

	g := &group{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		live:     make([]*thread, n),
		space:    space,
		trace:    trace,
		workerFn: workerFn,
		res:      &Result{Threads: make([]*interp.Result, n), FailedThread: -1, Trace: trace},
		wake:     make(chan struct{}),
	}
	for tid := 0; tid < n; tid++ {
		t := &thread{id: tid, resume: make(chan struct{})}
		g.live[tid] = t
		vcfg := cfg.VM
		vcfg.SpacePool = nil
		vcfg.SharedSpace = space
		vcfg.ThreadID = tid
		vcfg.Yield = func() { g.yield(t) }
		if tid > 0 {
			vcfg.Seed = derivedSeed(cfg.VM.Seed, tid)
			vcfg.SharedGlobals = g.live[0].vm.GlobalTable()
		}
		// Globals must land in thread 0's part of the setup, so build VMs
		// in thread order with window 0 current (allocas during argv
		// materialization land in thread 0's window; workloads take no
		// args, so in practice setup allocates globals only).
		vm, err := interp.NewVM(m, vcfg)
		if err != nil {
			return fail("sched: thread %d: %v", tid, err)
		}
		t.vm = vm
	}

	// Hand control to the first thread drawn and wait for the group to
	// end. If it ended on an abnormal exit, every thread still live is
	// switched to once, as a draw would, and the started ones are resumed
	// to unwind through the abort sentinel. A thread never drawn was
	// never started and leaves a nil result.
	g.handover(g.pick())
	<-g.wake
	g.aborted = true
	for _, t := range g.live {
		g.switchTo(t)
		if t.started {
			t.resume <- struct{}{}
			<-g.wake
		}
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
