package sched

// referenceRun is the scheduler as it stood before the direct
// thread-to-thread handover, kept verbatim as the test oracle: a
// scheduler goroutine draws every thread and exchanges control with it
// over a parked/resume channel pair per yield. TestRunMatchesReference
// holds Run to it. It leaks the goroutines of threads it starts during an
// abort, so leak-sensitive tests must not call it inside their window.

import (
	"fmt"
	"math/rand"

	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// refThread is one scheduled VM's control block.
type refThread struct {
	id     int
	resume chan struct{}
	parked chan struct{} // signaled at every yield and at exit
	done   bool
	res    *interp.Result
}

// yield hands control back to the scheduler; it returns when the
// scheduler next picks this thread, or panics the abort sentinel if the
// group failed in between.
func (t *refThread) yield(aborted *bool) {
	t.parked <- struct{}{}
	<-t.resume
	if *aborted {
		panic(abortUnwind{})
	}
}

// referenceRun executes one concurrent group of m and returns its outcome. Setup
// failures (bad config, missing worker function) are reported as an
// ExitError Combined result, mirroring interp.Run.
func referenceRun(m *ir.Module, cfg Config) *Result {
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

	aborted := false
	threads := make([]*refThread, n)
	vms := make([]*interp.VM, n)
	for tid := 0; tid < n; tid++ {
		t := &refThread{id: tid, resume: make(chan struct{}), parked: make(chan struct{})}
		threads[tid] = t
		vcfg := cfg.VM
		vcfg.SpacePool = nil
		vcfg.SharedSpace = space
		vcfg.ThreadID = tid
		vcfg.Yield = func() { t.yield(&aborted) }
		if tid > 0 {
			vcfg.Seed = derivedSeed(cfg.VM.Seed, tid)
			vcfg.SharedGlobals = vms[0].GlobalTable()
		}
		// Globals must land in thread 0's part of the setup, so build VMs
		// in thread order with window 0 current (allocas during argv
		// materialization land in thread 0's window; workloads take no
		// args, so in practice setup allocates globals only).
		vm, err := interp.NewVM(m, vcfg)
		if err != nil {
			return fail("sched: thread %d: %v", tid, err)
		}
		vms[tid] = vm
	}

	// One goroutine per thread, each parked until its first resume. The
	// unbuffered handover (parked/resume) means the scheduler and all
	// threads form a single logical thread of control.
	for tid := range threads {
		t := threads[tid]
		vm := vms[tid]
		go func() {
			<-t.resume
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortUnwind); !ok {
						panic(r)
					}
					t.res = nil // unwound after the group aborted
				}
				t.done = true
				t.parked <- struct{}{}
			}()
			if t.id == 0 {
				t.res = vm.Run()
			} else {
				t.res = vm.RunEntry(workerFn, []uint64{uint64(t.id)})
			}
		}()
	}

	// The interleaving loop: repeatedly pick a live thread, hand it the
	// space (stack window + trace labeling), run it to its next yield.
	rng := rand.New(rand.NewSource(cfg.Seed))
	live := make([]*refThread, n)
	copy(live, threads)
	res := &Result{Threads: make([]*interp.Result, n), FailedThread: -1, Trace: trace}
	runOne := func(t *refThread) {
		space.SwitchStack(t.id)
		if trace != nil {
			trace.SetThread(t.id)
		}
		t.resume <- struct{}{}
		<-t.parked
		res.Switches++
	}
	for len(live) > 0 {
		i := rng.Intn(len(live))
		t := live[i]
		runOne(t)
		if !t.done {
			continue
		}
		live = append(live[:i], live[i+1:]...)
		res.Threads[t.id] = t.res
		if t.res != nil && t.res.Kind != interp.ExitNormal && !aborted {
			// First abnormal exit: classify the group and unwind the rest.
			aborted = true
			res.FailedThread = t.id
			for len(live) > 0 {
				u := live[0]
				live = live[1:]
				runOne(u) // resumes into the abort sentinel
				res.Threads[u.id] = u.res
			}
		}
	}

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
