// Package interp executes IR modules over the simulated address space.
// It is the runtime substrate for both untransformed ("golden"/"stdapp")
// and DPMR-transformed program variants, and implements the observable
// behaviours the paper's evaluation measures: normal exits, crashes
// (traps), DPMR detections, timeouts, program output, a deterministic
// cycle clock, and the time of first execution of injected fault code.
//
// # Concurrency
//
// A VM never mutates its module: instructions, blocks, registers, types,
// and global descriptors are only read during execution. All mutable run
// state — the address space, register files, PRNG, output stream, and the
// cycle/step clocks — lives in the VM (or on its Go stack). One frozen
// ir.Module may therefore back any number of VMs running concurrently,
// which is what the harness's parallel campaign engine relies on: each
// distinct (workload, site, variant) module is built once and shared
// read-only across all worker goroutines. Extern maps passed in Config
// must not be shared between concurrently running VMs unless their
// implementations are themselves stateless or synchronized (the extlib
// constructors return a fresh map per call).
package interp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"dpmr/internal/failpt"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// ExitKind classifies how a program run ended.
type ExitKind uint8

// Exit kinds. ExitNormal covers both falling off main and explicit exit;
// the harness inspects Code to distinguish error-signalling exits
// (application-level natural detection, §3.6).
const (
	ExitNormal  ExitKind = iota + 1
	ExitTrap             // simulated hardware fault: the paper's signal exit
	ExitDetect           // DPMR detection (replica comparison mismatch)
	ExitTimeout          // exceeded the step budget (§3.6 timeout exits)
	ExitError            // harness/runtime configuration error
)

func (k ExitKind) String() string {
	switch k {
	case ExitNormal:
		return "normal"
	case ExitTrap:
		return "trap"
	case ExitDetect:
		return "dpmr-detect"
	case ExitTimeout:
		return "timeout"
	case ExitError:
		return "error"
	default:
		return "unknown"
	}
}

// Result describes one program run.
type Result struct {
	Kind       ExitKind
	Code       int64  // exit code for ExitNormal
	Reason     string // trap/detection/error detail
	Steps      uint64 // instructions executed
	Cycles     uint64 // deterministic cycle clock
	Output     []byte // program output stream
	FaultSeen  bool   // a FaultPoint executed ("successful fault injection")
	FaultCycle uint64 // cycle count at first FaultPoint execution
	Mem        mem.Stats
}

// Extern is a Go-implemented external function (§2.8). It receives raw
// argument scalars and returns a raw result. It may return a *mem.Trap, a
// *Detection, or an *ExitRequest to stop the program.
type Extern func(vm *VM, args []uint64) (uint64, error)

// Detection is returned by externs (and raised by Assert) when DPMR state
// comparison finds a mismatch.
type Detection struct{ Reason string }

func (d *Detection) Error() string { return "dpmr detection: " + d.Reason }

// ExitRequest terminates the program from inside an extern.
type ExitRequest struct{ Code int64 }

func (e *ExitRequest) Error() string { return fmt.Sprintf("exit(%d)", e.Code) }

// timeoutErr is an internal sentinel.
type timeoutErr struct{}

func (timeoutErr) Error() string { return "step budget exhausted" }

// Config configures a VM.
type Config struct {
	Mem mem.Config
	// StepLimit is the step budget: the run times out on the first step
	// past it (0 = effectively unlimited). A compiled run that provably
	// loops until the budget runs out may skip whole periods of that loop
	// (cycle.go), but its Result is the one every step would have given.
	StepLimit uint64
	Seed      int64 // PRNG seed (RandInt instruction, rearrange-heap)
	Externs   map[string]Extern
	MaxDepth  int // call depth limit; 0 = default 4096
	// Args are command-line arguments (argv[1:]; argv[0] is the module
	// name), materialized on the heap when main has an (argc, argv)
	// signature.
	Args []string
	// Trace, when non-nil, receives one line per executed instruction
	// ("cycle fn.block: instr"). Intended for debugging small programs;
	// tracing a workload produces megabytes.
	Trace io.Writer
	// TraceLimit caps traced instructions (0 = unlimited).
	TraceLimit uint64
	// OpStats, when non-nil, accumulates the executed opcode-pair/triple
	// histogram that drives superinstruction selection (profile.go). Like
	// Trace, it routes the run through the tree-walking loop so the
	// compiled dispatch never pays for the hook.
	OpStats *OpStats
	// Prog, when non-nil, is the module's compiled form (Compile or
	// CompileYielding): the VM executes the pre-decoded register bytecode
	// instead of tree-walking the IR. Results — cycles, traps, detections,
	// RNG sequence, output — are bit-identical either way. Prog must have
	// been compiled from the same *ir.Module the VM runs. The VM binds it
	// only when its hooks allow: with Trace or OpStats set it tree-walks,
	// whose per-instruction hooks the compiled loop keeps out of its fast
	// path entirely; with Yield set it binds only a CompileYielding
	// program, so a plain program never runs without its yields. Only a
	// bound program can be driven by Start and Resume.
	Prog *Program
	// SpacePool, when non-nil, supplies the VM's address space and
	// receives it back when Run completes (after memory statistics are
	// captured). Pooled spaces are Reset to a pristine state, so results
	// are identical to fresh allocation; the pool only removes the
	// per-trial cost of allocating and zeroing multi-megabyte spaces.
	// SpacePool's config must match Mem.
	SpacePool *mem.Pool
	// Yield, when non-nil, is invoked before every load, store, atomic,
	// and fence — the cooperative scheduling points of the interleaving
	// scheduler (internal/sched) — after the instruction's step is
	// counted and before its access. A VM runs a yielding Prog
	// (CompileYielding) under it, and tree-walks otherwise; the plain
	// compiled dispatch never pays for the hook. Both loops yield at the
	// same points with the same clocks.
	//
	// The hook reports whether the VM parks there. Only a VM driven by
	// Start and Resume can park: Resume then returns nil, and the next
	// Resume carries out the access without yielding again. A hook that
	// wants another thread to run returns true there; under Run, RunEntry
	// or Call — the walker always among them — it must instead block
	// until this VM may go on, and return false. Such a VM fails with an
	// error if its hook returns true.
	Yield func() (park bool)
	// ThreadID labels this VM's accesses in the shared Space's trace
	// recorder (see mem.TraceRec). Only meaningful under a scheduler.
	ThreadID int
	// SharedSpace, when non-nil, is an externally owned address space the
	// VM joins instead of allocating its own: globals are not re-created
	// (the primary VM of the scheduler group already laid them out and
	// shares its symbol tables via SharedGlobals), and the space is not
	// pooled or released by Run. Secondary VMs of a concurrent group set
	// this together with a per-thread stack window.
	SharedSpace *mem.Space
	// SharedGlobals maps module-order global indices to their addresses
	// in SharedSpace, as built by the primary VM (GlobalTable).
	SharedGlobals []uint64
}

// Instruction cycle costs beyond the base cost of 1.
const (
	costLoadBase  = 1
	costStoreBase = 1
	costBranch    = 2
	costCall      = 6
	costRet       = 3
	costMallocOp  = 30
	costFreeOp    = 20
	costAlloca    = 4
	costDiv       = 10
	costFloatOp   = 3
	costOutput    = 20
	costAssert    = 2
	costIntrinsic = 5
	costFence     = 1
)

// YieldStallSite is the interpreter-layer failpoint: a stall scheduled
// here delays the cooperative yield path (the handover between VMs of a
// concurrent group), drilling scheduler robustness against slow
// threads. Evaluated only when a Yield hook is installed, so
// single-threaded execution never pays for it.
var YieldStallSite = failpt.Register("interp/yield-stall", failpt.KindStall)

// VM is one executing program instance.
type VM struct {
	Module *ir.Module
	Space  *mem.Space

	cfg     Config
	rng     *rand.Rand // nil until first use (Rand)
	output  []byte
	steps   uint64
	cycles  uint64
	limit   uint64
	depth   int
	maxDep  int
	globals map[string]uint64

	faultSeen  bool
	faultCycle uint64

	funcAddr map[string]uint64
	addrFunc map[uint64]*ir.Func

	// Compiled-execution state: the bound program (nil = tree-walk), the
	// per-module-order global addresses its GlobalAddr instructions index,
	// and the register/argument arenas its call frames are carved from.
	prog        *Program
	globalAddrs []uint64
	regStack    []uint64
	argStack    []uint64

	// The compiled loop's explicit call stack (exec.go), and the index of
	// the base frame of the innermost dispatch segment: 0 for the root,
	// higher in a segment an extern called back into. parked marks the
	// top frame's pc as a yielding instruction whose yield was taken.
	frames  []frame
	segBase int
	parked  bool

	// Resumable entry state (Start, Resume): the entry function and its
	// arguments, and whether they are main's argv, still to be built.
	resumable bool
	entryMain bool
	entry     *compiledFunc
	entryArgs []uint64

	// Indirect-call inline caches, indexed by each opCallIndirect's imm2
	// slot: a monomorphic site resolves its target with one tag compare.
	// Per-VM because the Program is shared read-only across concurrent
	// VMs; allocated lazily on the first indirect call (exec.go).
	icTags  []uint64
	icFuncs []*compiledFunc

	// cyc is the compiled loop's periodic fast-forward detector
	// (cycle.go).
	cyc cycleState
}

const funcAddrBase = 0x7F00_0000_0000_0000

// funcAddrOf is the synthetic address of the module's i-th function. The
// compiler and the VM derive function addresses from the same formula, so
// a Program's precomputed addresses match every VM of its module.
func funcAddrOf(i int) uint64 { return uint64(funcAddrBase) + uint64(i)*16 }

// NewVM builds a VM for module m, allocating and initializing globals.
func NewVM(m *ir.Module, cfg Config) (*VM, error) {
	limit := cfg.StepLimit
	if limit == 0 {
		limit = math.MaxUint64
	}
	maxDep := cfg.MaxDepth
	if maxDep == 0 {
		maxDep = 4096
	}
	var space *mem.Space
	switch {
	case cfg.SharedSpace != nil:
		if cfg.SpacePool != nil {
			return nil, fmt.Errorf("interp: Config.SharedSpace and Config.SpacePool are mutually exclusive")
		}
		space = cfg.SharedSpace
	case cfg.SpacePool != nil:
		if got := cfg.SpacePool.Config(); got != cfg.Mem.WithDefaults() {
			return nil, fmt.Errorf("interp: Config.SpacePool built for %+v, but Config.Mem wants %+v", got, cfg.Mem.WithDefaults())
		}
		space = cfg.SpacePool.Get()
	default:
		space = mem.NewSpace(cfg.Mem)
	}
	// On setup failure a pooled space goes straight back to the pool.
	fail := func(err error) (*VM, error) {
		if cfg.SpacePool != nil {
			cfg.SpacePool.Put(space)
		}
		return nil, err
	}
	vm := &VM{
		Module: m,
		Space:  space,
		cfg:    cfg,
		limit:  limit,
		maxDep: maxDep,
	}
	if cfg.Prog != nil {
		if cfg.Prog.mod != m {
			return fail(fmt.Errorf("interp: Config.Prog was compiled from module %q, not %q", cfg.Prog.mod.Name, m.Name))
		}
		if cfg.Trace == nil && cfg.OpStats == nil && (cfg.Yield == nil || cfg.Prog.yielding) {
			vm.prog = cfg.Prog
		}
	}
	vm.armCycles()
	if vm.prog == nil {
		// The per-VM symbol maps back the tree-walker's FuncAddr /
		// GlobalAddr / indirect-call lookups. A program-bound VM skips
		// building them: the Program carries shared, immutable equivalents
		// (byAddr, globalIdx), so the per-trial setup cost disappears.
		vm.globals = make(map[string]uint64, len(m.Globals))
		vm.funcAddr = make(map[string]uint64, len(m.Funcs))
		vm.addrFunc = make(map[uint64]*ir.Func, len(m.Funcs))
		for i, f := range m.Funcs {
			a := funcAddrOf(i)
			vm.funcAddr[f.Name] = a
			vm.addrFunc[a] = f
		}
	}
	if cfg.SharedGlobals != nil {
		// A secondary VM of a concurrent group: the primary already laid
		// the globals out in the shared space and initialized them; adopt
		// its address table instead of allocating a second copy.
		if len(cfg.SharedGlobals) != len(m.Globals) {
			return fail(fmt.Errorf("interp: SharedGlobals has %d entries, module has %d globals", len(cfg.SharedGlobals), len(m.Globals)))
		}
		vm.globalAddrs = cfg.SharedGlobals
		if vm.globals != nil {
			for i, g := range m.Globals {
				vm.globals[g.Name] = vm.globalAddrs[i]
			}
		}
		return vm, nil
	}
	// Module-order global addresses: the canonical table (compiled
	// GlobalAddr instructions index it directly; the name map, when built,
	// mirrors it).
	vm.globalAddrs = make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		addr, err := vm.Space.AllocGlobal(g.Elem.Size())
		if err != nil {
			return fail(fmt.Errorf("interp: global %s: %w", g.Name, err))
		}
		vm.globalAddrs[i] = addr
		if vm.globals != nil {
			vm.globals[g.Name] = addr
		}
	}
	// Apply initial images and pointer fixups after all addresses exist.
	for gi, g := range m.Globals {
		addr := vm.globalAddrs[gi]
		if g.Init != nil {
			if len(g.Init) != g.Elem.Size() {
				return fail(fmt.Errorf("interp: global %s init size %d, want %d", g.Name, len(g.Init), g.Elem.Size()))
			}
			if trap := vm.Space.WriteBytes(addr, g.Init); trap != nil {
				return fail(fmt.Errorf("interp: global %s init: %w", g.Name, trap))
			}
		}
		for _, ref := range g.Refs {
			var target uint64
			switch {
			case ref.Global != "":
				target, _ = vm.GlobalAddr(ref.Global)
			case ref.Func != "":
				target, _ = vm.FuncAddr(ref.Func)
			}
			if target == 0 {
				return fail(fmt.Errorf("interp: global %s ref to unknown symbol", g.Name))
			}
			if trap := vm.Space.Store(addr+uint64(ref.Offset), 8, target); trap != nil {
				return fail(fmt.Errorf("interp: global %s ref fixup: %w", g.Name, trap))
			}
		}
	}
	return vm, nil
}

// Run executes main() and returns the run result. It never returns an
// error for program-level failures — those are encoded in the Result.
func Run(m *ir.Module, cfg Config) *Result {
	vm, err := NewVM(m, cfg)
	if err != nil {
		return &Result{Kind: ExitError, Reason: err.Error()}
	}
	return vm.Run()
}

// Run executes main() on an initialized VM. With Config.SpacePool set,
// the VM's address space is recycled when Run returns; the VM must not be
// used again.
func (vm *VM) Run() *Result {
	release := func() {
		if vm.cfg.SpacePool != nil {
			vm.cfg.SpacePool.Put(vm.Space)
			vm.Space = nil
		}
	}
	mainFn := vm.Module.Func("main")
	res := &Result{}
	if mainFn == nil {
		res.Kind = ExitError
		res.Reason = "no main function"
		release()
		return res
	}
	args, err := vm.mainArgs(mainFn)
	if err != nil {
		res.Kind = ExitError
		res.Reason = err.Error()
		release()
		return res
	}
	res = vm.RunEntry(mainFn, args)
	// The run is over and its statistics are captured: recycle the space.
	release()
	return res
}

// RunEntry executes fn(args) on an initialized VM and classifies the
// outcome exactly like Run, without the main-specific setup or space
// recycling.
func (vm *VM) RunEntry(fn *ir.Func, args []uint64) *Result {
	ret, err := vm.Call(fn, args)
	return vm.exitResult(fn, ret, err)
}

// Start arms a VM to run fn(args) under Resume, a step at a time: the
// entry point of the interleaving scheduler, which drives each thread of
// a concurrent group this way on the calling goroutine. The VM must be
// bound to a compiled program (Config.Prog) that compiles fn. No
// instruction runs before the first Resume.
func (vm *VM) Start(fn *ir.Func, args []uint64) error {
	if vm.prog == nil {
		return fmt.Errorf("interp: Start needs a VM bound to a compiled program")
	}
	cf := vm.prog.byFn[fn]
	if cf == nil || cf.external {
		return fmt.Errorf("interp: Start of %s, which the program does not compile", fn.Name)
	}
	vm.resumable, vm.entry, vm.entryArgs = true, cf, args
	return nil
}

// StartMain is Start for main(). Its argv, when it takes one, is built on
// the first Resume, as Run builds it before the first instruction.
func (vm *VM) StartMain() error {
	mainFn := vm.Module.Func("main")
	if mainFn == nil {
		return errors.New("no main function")
	}
	if err := vm.Start(mainFn, nil); err != nil {
		return err
	}
	vm.entryMain = true
	return nil
}

// Resume runs the started VM until its Yield hook parks it, returning
// nil, or until the entry function exits, returning the Result RunEntry
// would return for the whole run. Unlike Run, it never recycles the
// space. A yield reached inside an extern callback cannot park, so it
// ends the run with ErrYieldInCallback.
func (vm *VM) Resume() *Result {
	cf := vm.entry
	if cf == nil {
		return &Result{Kind: ExitError, Reason: "interp: Resume of a VM that is not started"}
	}
	var ret uint64
	var err error
	if len(vm.frames) > 0 {
		ret, err = vm.dispatch()
	} else {
		args := vm.entryArgs
		if vm.entryMain {
			if args, err = vm.mainArgs(cf.fn); err != nil {
				vm.entry = nil
				return &Result{Kind: ExitError, Reason: err.Error()}
			}
		}
		ret, err = vm.execCompiled(cf, args)
	}
	if err == errParked {
		return nil
	}
	vm.entry = nil
	return vm.exitResult(cf.fn, ret, err)
}

// exitResult classifies the exit of entry function fn, which returned ret
// and err, with the VM's clocks, output and memory statistics.
func (vm *VM) exitResult(fn *ir.Func, ret uint64, err error) *Result {
	res := &Result{}
	switch e := err.(type) {
	case nil:
		res.Kind = ExitNormal
		if fn.Sig.Ret.Kind() != ir.KindVoid {
			res.Code = int64(ret)
		}
	case *mem.Trap:
		res.Kind = ExitTrap
		res.Reason = e.Reason
	case *Detection:
		res.Kind = ExitDetect
		res.Reason = e.Reason
	case *ExitRequest:
		res.Kind = ExitNormal
		res.Code = e.Code
	case timeoutErr:
		res.Kind = ExitTimeout
		res.Reason = "timeout"
	default:
		res.Kind = ExitError
		res.Reason = err.Error()
	}
	res.Steps = vm.steps
	res.Cycles = vm.cycles
	res.Output = vm.output
	res.FaultSeen = vm.faultSeen
	res.FaultCycle = vm.faultCycle
	res.Mem = vm.Space.Stats()
	return res
}

// mainArgs materializes argc/argv for main(argc, argv)-style entry points
// (empty for parameterless main). argv[0] is the module name.
func (vm *VM) mainArgs(mainFn *ir.Func) ([]uint64, error) {
	switch len(mainFn.Params) {
	case 0:
		return nil, nil
	case 2:
		argvStrings := append([]string{vm.Module.Name}, vm.cfg.Args...)
		argc := uint64(len(argvStrings))
		arr, trap := vm.Space.Malloc(argc * 8)
		if trap != nil {
			return nil, trap
		}
		for i, s := range argvStrings {
			buf, trap := vm.Space.Malloc(uint64(len(s)) + 1)
			if trap != nil {
				return nil, trap
			}
			if trap := vm.Space.WriteBytes(buf, append([]byte(s), 0)); trap != nil {
				return nil, trap
			}
			if trap := vm.Space.Store(arr+uint64(i)*8, 8, buf); trap != nil {
				return nil, trap
			}
		}
		return []uint64{argc, arr}, nil
	default:
		return nil, fmt.Errorf("unsupported main signature with %d params", len(mainFn.Params))
	}
}

// Cycles returns the current cycle clock.
func (vm *VM) Cycles() uint64 { return vm.cycles }

// Charge adds cycles to the clock (used by extern implementations).
func (vm *VM) Charge(c uint64) { vm.cycles += c }

// Steps returns the number of instructions executed so far.
func (vm *VM) Steps() uint64 { return vm.steps }

// Rand exposes the deterministic PRNG to externs and RandInt. It is
// seeded from Config.Seed on first use, which draws the same stream as
// seeding in NewVM while sparing the many runs that never draw.
func (vm *VM) Rand() *rand.Rand {
	if vm.rng == nil {
		vm.rng = rand.New(rand.NewSource(vm.cfg.Seed))
	}
	return vm.rng
}

// Compiled reports whether the VM executes a bound compiled program
// (Config.Prog) rather than tree-walking the IR.
func (vm *VM) Compiled() bool { return vm.prog != nil }

// AppendOutput adds bytes to the program output stream.
func (vm *VM) AppendOutput(b []byte) { vm.output = append(vm.output, b...) }

// GlobalAddr returns the runtime address of a global.
func (vm *VM) GlobalAddr(name string) (uint64, bool) {
	if vm.prog != nil {
		i, ok := vm.prog.globalIdx[name]
		if !ok {
			return 0, false
		}
		return vm.globalAddrs[i], true
	}
	a, ok := vm.globals[name]
	return a, ok
}

// FuncByAddr resolves a function pointer value.
func (vm *VM) FuncByAddr(addr uint64) (*ir.Func, bool) {
	if vm.prog != nil {
		cf, ok := vm.prog.byAddr[addr]
		if !ok {
			return nil, false
		}
		return cf.fn, true
	}
	f, ok := vm.addrFunc[addr]
	return f, ok
}

// FuncAddr returns the synthetic address of a function.
func (vm *VM) FuncAddr(name string) (uint64, bool) {
	if vm.prog != nil {
		f := vm.Module.Func(name)
		if f == nil {
			return 0, false
		}
		return vm.prog.byFn[f].addr, true
	}
	a, ok := vm.funcAddr[name]
	return a, ok
}

// Call invokes fn with raw argument scalars. Used for main and by extern
// wrappers that need to call back into IR (e.g. qsort's comparator).
// When the VM has a compiled program bound, internal functions execute
// their pre-decoded bytecode; otherwise (and for any function outside the
// program's module) the tree-walking loop below runs.
func (vm *VM) Call(fn *ir.Func, args []uint64) (uint64, error) {
	if fn.External {
		impl, ok := vm.cfg.Externs[fn.Name]
		if !ok {
			return 0, fmt.Errorf("unresolved external function %s", fn.Name)
		}
		if len(args) != len(fn.Params) {
			return 0, fmt.Errorf("call of %s with %d args, want %d", fn.Name, len(args), len(fn.Params))
		}
		vm.cycles += costCall
		return impl(vm, args)
	}
	if vm.prog != nil {
		if cf := vm.prog.byFn[fn]; cf != nil {
			return vm.execCompiled(cf, args)
		}
	}
	if vm.depth >= vm.maxDep {
		return 0, &mem.Trap{Reason: "call stack depth exceeded"}
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("call of %s with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	vm.depth++
	mark := vm.Space.PushFrame()
	defer func() {
		vm.Space.PopFrame(mark)
		vm.depth--
	}()

	regs := make([]uint64, fn.NumRegs())
	for i, p := range fn.Params {
		regs[p.ID] = args[i]
	}
	block := fn.Entry()
	ip := 0
	// Within-block opcode window for OpStats: reset to opInvalid at every
	// block transition, because fusion (fusion.go) only ever reaches across
	// instructions that are adjacent inside one block.
	prev1, prev2 := opInvalid, opInvalid
	for {
		if ip >= len(block.Instrs) {
			return 0, fmt.Errorf("fell off block %s in %s", block.Name, fn.Name)
		}
		in := block.Instrs[ip]
		vm.steps++
		vm.cycles++
		if vm.steps > vm.limit {
			return 0, timeoutErr{}
		}
		if vm.cfg.Trace != nil && (vm.cfg.TraceLimit == 0 || vm.steps <= vm.cfg.TraceLimit) {
			fmt.Fprintf(vm.cfg.Trace, "%10d @%s.%s: %s\n", vm.cycles, fn.Name, block.Name, in)
		}
		if s := vm.cfg.OpStats; s != nil {
			op := opcodeOfInstr(in)
			s.record(prev2, prev1, op)
			prev2, prev1 = prev1, op
		}
		switch i := in.(type) {
		case *ir.ConstInt:
			regs[i.Dst.ID] = normInt(uint64(i.Val), i.Dst.Type)
		case *ir.ConstFloat:
			regs[i.Dst.ID] = floatBits(i.Val, i.Dst.Type)
		case *ir.ConstNull:
			regs[i.Dst.ID] = 0
		case *ir.Move:
			regs[i.Dst.ID] = regs[i.Src.ID]
		case *ir.BinOp:
			v, err := vm.binop(i, regs[i.X.ID], regs[i.Y.ID])
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = v
		case *ir.Cmp:
			regs[i.Dst.ID] = cmp(i, regs[i.X.ID], regs[i.Y.ID])
		case *ir.Convert:
			regs[i.Dst.ID] = convert(regs[i.Src.ID], i.Src.Type, i.Dst.Type)
		case *ir.Alloc:
			addr, err := vm.alloc(i, regs)
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = addr
		case *ir.Free:
			vm.cycles += costFreeOp
			if trap := vm.Space.Free(regs[i.Ptr.ID]); trap != nil {
				return 0, trap
			}
		case *ir.Load:
			if _, err := vm.yield(false); err != nil {
				return 0, err
			}
			addr := regs[i.Ptr.ID]
			n := i.Dst.Type.Size()
			vm.cycles += costLoadBase + vm.Space.AccessCost(addr)
			raw, trap := vm.Space.Load(addr, n)
			if trap != nil {
				return 0, trap
			}
			regs[i.Dst.ID] = normLoaded(raw, i.Dst.Type)
		case *ir.Store:
			if _, err := vm.yield(false); err != nil {
				return 0, err
			}
			addr := regs[i.Ptr.ID]
			n := i.Val.Type.Size()
			vm.cycles += costStoreBase + vm.Space.AccessCost(addr)
			if trap := vm.Space.Store(addr, n, regs[i.Val.ID]); trap != nil {
				return 0, trap
			}
		case *ir.FieldAddr:
			off, err := fieldOffset(i.Ptr.Elem(), i.Field)
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = regs[i.Ptr.ID] + uint64(off)
		case *ir.IndexAddr:
			stride := Stride(i.Ptr.Elem())
			idx := int64(regs[i.Index.ID])
			regs[i.Dst.ID] = uint64(int64(regs[i.Ptr.ID]) + idx*int64(stride))
		case *ir.Bitcast:
			regs[i.Dst.ID] = regs[i.Src.ID]
		case *ir.PtrToInt:
			regs[i.Dst.ID] = normInt(regs[i.Src.ID], i.Dst.Type)
		case *ir.IntToPtr:
			regs[i.Dst.ID] = regs[i.Src.ID]
		case *ir.FuncAddr:
			// Resolve through the prog-aware accessors, not the raw maps:
			// a program-bound VM tree-walking a foreign function (the
			// documented fallback) has no per-VM symbol maps. A miss reads
			// as address 0, as it always has.
			a, _ := vm.FuncAddr(i.Fn)
			regs[i.Dst.ID] = a
		case *ir.GlobalAddr:
			a, _ := vm.GlobalAddr(i.G)
			regs[i.Dst.ID] = a
		case *ir.Call:
			vm.cycles += costCall
			var callee *ir.Func
			if i.Callee != "" {
				callee = vm.Module.Func(i.Callee)
			} else {
				fp := regs[i.CalleePtr.ID]
				f, ok := vm.FuncByAddr(fp)
				if !ok {
					return 0, &mem.Trap{Reason: "indirect call through invalid function pointer", Addr: fp}
				}
				callee = f
			}
			callArgs := make([]uint64, len(i.Args))
			for k, a := range i.Args {
				callArgs[k] = regs[a.ID]
			}
			rv, err := vm.Call(callee, callArgs)
			if err != nil {
				return 0, err
			}
			if i.Dst != nil {
				regs[i.Dst.ID] = rv
			}
		case *ir.Ret:
			vm.cycles += costRet
			if i.Val != nil {
				return regs[i.Val.ID], nil
			}
			return 0, nil
		case *ir.Br:
			vm.cycles += costBranch
			block = i.Target
			ip = 0
			prev1, prev2 = opInvalid, opInvalid
			continue
		case *ir.CondBr:
			vm.cycles += costBranch
			if regs[i.Cond.ID] != 0 {
				block = i.True
			} else {
				block = i.False
			}
			ip = 0
			prev1, prev2 = opInvalid, opInvalid
			continue
		case *ir.Assert:
			vm.cycles += costAssert
			if regs[i.X.ID] != regs[i.Y.ID] {
				return 0, &Detection{Reason: fmt.Sprintf("replica mismatch in %s: %#x != %#x", fn.Name, regs[i.X.ID], regs[i.Y.ID])}
			}
		case *ir.FaultPoint:
			if !vm.faultSeen {
				vm.faultSeen = true
				vm.faultCycle = vm.cycles
			}
		case *ir.RandInt:
			vm.cycles += costIntrinsic
			v, err := randInRange(vm.Rand(), i.Lo, i.Hi)
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = v
		case *ir.HeapBufSize:
			vm.cycles += costIntrinsic
			size, trap := vm.Space.HeapPayloadSize(regs[i.Ptr.ID])
			if trap != nil {
				return 0, trap
			}
			regs[i.Dst.ID] = size
		case *ir.Output:
			vm.cycles += costOutput
			vm.emitOutput(i, regs[i.Val.ID])
		case *ir.AtomicRMW:
			if _, err := vm.yield(false); err != nil {
				return 0, err
			}
			raddr := uint64(0)
			if i.RPtr != nil {
				raddr = regs[i.RPtr.ID]
			}
			old, err := vm.atomicRMW(i.Op, regs[i.Ptr.ID], regs[i.Val.ID],
				i.Dst.Type.Size(), normModeOf(i.Dst.Type), raddr, i.RPtr != nil)
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = old
		case *ir.AtomicCAS:
			if _, err := vm.yield(false); err != nil {
				return 0, err
			}
			raddr := uint64(0)
			if i.RPtr != nil {
				raddr = regs[i.RPtr.ID]
			}
			old, err := vm.atomicCAS(regs[i.Ptr.ID], regs[i.Old.ID], regs[i.New.ID],
				i.Dst.Type.Size(), normModeOf(i.Dst.Type), raddr, i.RPtr != nil)
			if err != nil {
				return 0, err
			}
			regs[i.Dst.ID] = old
		case *ir.Fence:
			if _, err := vm.yield(false); err != nil {
				return 0, err
			}
			vm.cycles += costFence
		case *ir.Exit:
			code := int64(0)
			if i.Val != nil {
				code = int64(regs[i.Val.ID])
			}
			return 0, &ExitRequest{Code: code}
		default:
			return 0, fmt.Errorf("unknown instruction %T in %s", in, fn.Name)
		}
		ip++
	}
}

func (vm *VM) alloc(i *ir.Alloc, regs []uint64) (uint64, error) {
	count := int64(1)
	if i.Count != nil {
		count = int64(regs[i.Count.ID])
	}
	return vm.allocMem(i.Kind, count, uint64(PaddedSize(i.Elem)))
}

// allocMem is the allocation path shared by the tree-walker and the
// compiled loop: identical count validation, cycle charges, and traps.
func (vm *VM) allocMem(kind ir.AllocKind, count int64, elemSize uint64) (uint64, error) {
	if count < 0 {
		return 0, &mem.Trap{Reason: "negative allocation count"}
	}
	size := uint64(count) * elemSize
	if kind == ir.AllocHeap {
		vm.cycles += costMallocOp
		addr, trap := vm.Space.Malloc(size)
		if trap != nil {
			return 0, trap
		}
		return addr, nil
	}
	vm.cycles += costAlloca
	addr, trap := vm.Space.Alloca(size)
	if trap != nil {
		return 0, trap
	}
	return addr, nil
}

// yield hands control to the interleaving scheduler at a cooperative
// scheduling point and reports whether the VM parks there, which only a
// started VM (Start) may, in its root dispatch segment. A started VM
// refuses a yield in any other segment — code an extern called back
// into, root false — before consulting the hook. No-op (one nil check)
// outside concurrent execution.
func (vm *VM) yield(root bool) (bool, error) {
	if vm.cfg.Yield == nil {
		return false, nil
	}
	if vm.resumable && !root {
		return false, ErrYieldInCallback
	}
	if act := failpt.Eval(YieldStallSite); act != nil {
		act.Sleep()
	}
	if !vm.cfg.Yield() {
		return false, nil
	}
	if !vm.resumable {
		return false, errCannotPark
	}
	return true, nil
}

// GlobalTable exposes the module-order global address table, which the
// scheduler hands to secondary VMs joining this VM's address space
// (Config.SharedGlobals).
func (vm *VM) GlobalTable() []uint64 { return vm.globalAddrs }

// atomicCombine evaluates an atomic read-modify-write's combining
// function on the value read.
func atomicCombine(op ir.AtomicOp, old, val uint64) uint64 {
	switch op {
	case ir.AtomicAdd:
		return old + val
	case ir.AtomicAnd:
		return old & val
	case ir.AtomicOr:
		return old | val
	case ir.AtomicXor:
		return old ^ val
	default: // AtomicXchg
		return val
	}
}

// atomicRMW is the atomic read-modify-write path shared by the
// tree-walker and the compiled loop: identical cycle charges, traps,
// and replica handling, so compiled and reference execution stay
// bit-identical. The whole operation — including the replica update and
// check when bound — is one indivisible step: the caller yields before
// it, never inside. A replica mismatch on the value read is a DPMR
// detection fused into the atomic (see ir.AtomicRMW).
func (vm *VM) atomicRMW(op ir.AtomicOp, addr, val uint64, n int, mode uint8, raddr uint64, replica bool) (uint64, error) {
	vm.cycles += costLoadBase + costStoreBase + vm.Space.AccessCost(addr)
	raw, trap := vm.Space.Load(addr, n)
	if trap != nil {
		return 0, trap
	}
	old := normReg(raw, mode)
	if trap := vm.Space.Store(addr, n, atomicCombine(op, old, val)); trap != nil {
		return 0, trap
	}
	if replica {
		vm.cycles += costLoadBase + costStoreBase + costAssert + vm.Space.AccessCost(raddr)
		rraw, trap := vm.Space.Load(raddr, n)
		if trap != nil {
			return 0, trap
		}
		rold := normReg(rraw, mode)
		if rold != old {
			return 0, &Detection{Reason: fmt.Sprintf("atomic replica mismatch: %#x != %#x", old, rold)}
		}
		if trap := vm.Space.Store(raddr, n, atomicCombine(op, rold, val)); trap != nil {
			return 0, trap
		}
	}
	return old, nil
}

// atomicCAS is the compare-and-swap path shared by both loops; see
// atomicRMW for the replica semantics.
func (vm *VM) atomicCAS(addr, oldv, newv uint64, n int, mode uint8, raddr uint64, replica bool) (uint64, error) {
	vm.cycles += costLoadBase + costStoreBase + vm.Space.AccessCost(addr)
	raw, trap := vm.Space.Load(addr, n)
	if trap != nil {
		return 0, trap
	}
	cur := normReg(raw, mode)
	if cur == oldv {
		if trap := vm.Space.Store(addr, n, newv); trap != nil {
			return 0, trap
		}
	}
	if replica {
		vm.cycles += costLoadBase + costStoreBase + costAssert + vm.Space.AccessCost(raddr)
		rraw, trap := vm.Space.Load(raddr, n)
		if trap != nil {
			return 0, trap
		}
		rcur := normReg(rraw, mode)
		if rcur != cur {
			return 0, &Detection{Reason: fmt.Sprintf("atomic replica mismatch: %#x != %#x", cur, rcur)}
		}
		if rcur == oldv {
			if trap := vm.Space.Store(raddr, n, newv); trap != nil {
				return 0, trap
			}
		}
	}
	return cur, nil
}

func (vm *VM) emitOutput(i *ir.Output, raw uint64) {
	vm.emitOutputRaw(i.Mode, isF32(i.Val.Type), raw)
}

// emitOutputRaw formats raw onto the output stream; shared by both loops.
func (vm *VM) emitOutputRaw(mode ir.OutputMode, f32 bool, raw uint64) {
	switch mode {
	case ir.OutInt:
		vm.output = strconv.AppendInt(vm.output, int64(raw), 10)
		vm.output = append(vm.output, '\n')
	case ir.OutFloat:
		v := bitsToFloatF(raw, f32)
		vm.output = strconv.AppendFloat(vm.output, v, 'g', 6, 64)
		vm.output = append(vm.output, '\n')
	case ir.OutByte:
		vm.output = append(vm.output, byte(raw))
	}
}

// randInRange draws a uniform integer in [lo, hi]. The common case (a
// span representable as a positive int64) must consume exactly one Int63n
// call — recorded cycle counts and rearrange-heap layouts depend on the
// draw sequence. The degenerate cases, which previously panicked inside
// math/rand, are guarded: an empty range is a runtime error (and rejected
// by ir.Verify), and a span of 2^63 values or more — where hi-lo+1
// overflows int64 — draws from the full-width generator instead.
func randInRange(rng *rand.Rand, lo, hi int64) (uint64, error) {
	if hi < lo {
		return 0, fmt.Errorf("randint with empty range [%d, %d]", lo, hi)
	}
	if span := hi - lo + 1; span > 0 {
		return uint64(lo + rng.Int63n(span)), nil
	}
	v := rng.Uint64()
	if size := uint64(hi) - uint64(lo) + 1; size != 0 {
		v %= size
	}
	return uint64(lo) + v, nil
}

// floatBinScalar evaluates a floating-point binary operation on raw
// register bits; shared by both loops. An out-of-range BinKind produces
// 0.0, matching the tree-walker's historical fall-through.
func floatBinScalar(op ir.BinKind, x, y uint64, xf32, yf32, df32 bool) uint64 {
	a := bitsToFloatF(x, xf32)
	b := bitsToFloatF(y, yf32)
	var r float64
	switch op {
	case ir.OpFAdd:
		r = a + b
	case ir.OpFSub:
		r = a - b
	case ir.OpFMul:
		r = a * b
	case ir.OpFDiv:
		r = a / b
	}
	return floatBitsF(r, df32)
}

func (vm *VM) binop(i *ir.BinOp, x, y uint64) (uint64, error) {
	t := i.Dst.Type
	if i.Op.IsFloat() {
		vm.cycles += costFloatOp
		return floatBinScalar(i.Op, x, y, isF32(i.X.Type), isF32(i.Y.Type), isF32(t)), nil
	}
	width := uint(t.Size() * 8)
	switch i.Op {
	case ir.OpAdd:
		return normInt(x+y, t), nil
	case ir.OpSub:
		return normInt(x-y, t), nil
	case ir.OpMul:
		return normInt(x*y, t), nil
	case ir.OpSDiv:
		vm.cycles += costDiv
		if y == 0 {
			return 0, &mem.Trap{Reason: "integer division by zero"}
		}
		return normInt(uint64(int64(x)/int64(y)), t), nil
	case ir.OpUDiv:
		vm.cycles += costDiv
		if maskTo(y, width) == 0 {
			return 0, &mem.Trap{Reason: "integer division by zero"}
		}
		return normInt(maskTo(x, width)/maskTo(y, width), t), nil
	case ir.OpSRem:
		vm.cycles += costDiv
		if y == 0 {
			return 0, &mem.Trap{Reason: "integer division by zero"}
		}
		return normInt(uint64(int64(x)%int64(y)), t), nil
	case ir.OpURem:
		vm.cycles += costDiv
		if maskTo(y, width) == 0 {
			return 0, &mem.Trap{Reason: "integer division by zero"}
		}
		return normInt(maskTo(x, width)%maskTo(y, width), t), nil
	case ir.OpAnd:
		return normInt(x&y, t), nil
	case ir.OpOr:
		return normInt(x|y, t), nil
	case ir.OpXor:
		return normInt(x^y, t), nil
	case ir.OpShl:
		return normInt(x<<(y&63), t), nil
	case ir.OpLShr:
		return normInt(maskTo(x, width)>>(y&63), t), nil
	case ir.OpAShr:
		return normInt(uint64(int64(x)>>(y&63)), t), nil
	}
	return 0, fmt.Errorf("unknown binop %v", i.Op)
}

func cmp(i *ir.Cmp, x, y uint64) uint64 {
	return cmpScalar(i.Op, x, y, isF32(i.X.Type), isF32(i.Y.Type))
}

// cmpScalar evaluates a comparison predicate on raw register bits; shared
// by both loops. An out-of-range CmpKind yields 0, matching the
// tree-walker's historical fall-through.
func cmpScalar(op ir.CmpKind, x, y uint64, xf32, yf32 bool) uint64 {
	var b bool
	switch op {
	case ir.CmpEQ:
		b = x == y
	case ir.CmpNE:
		b = x != y
	case ir.CmpSLT:
		b = int64(x) < int64(y)
	case ir.CmpSLE:
		b = int64(x) <= int64(y)
	case ir.CmpSGT:
		b = int64(x) > int64(y)
	case ir.CmpSGE:
		b = int64(x) >= int64(y)
	case ir.CmpULT:
		b = x < y
	case ir.CmpULE:
		b = x <= y
	case ir.CmpUGT:
		b = x > y
	case ir.CmpUGE:
		b = x >= y
	default:
		a := bitsToFloatF(x, xf32)
		c := bitsToFloatF(y, yf32)
		switch op {
		case ir.CmpFEQ:
			b = a == c
		case ir.CmpFNE:
			b = a != c
		case ir.CmpFLT:
			b = a < c
		case ir.CmpFLE:
			b = a <= c
		case ir.CmpFGT:
			b = a > c
		case ir.CmpFGE:
			b = a >= c
		}
	}
	if b {
		return 1
	}
	return 0
}

func convert(v uint64, from, to ir.Type) uint64 {
	switch {
	case from.Kind() == ir.KindInt && to.Kind() == ir.KindInt:
		return normInt(v, to)
	case from.Kind() == ir.KindInt && to.Kind() == ir.KindFloat:
		return floatBits(float64(int64(v)), to)
	case from.Kind() == ir.KindFloat && to.Kind() == ir.KindInt:
		return normInt(uint64(int64(bitsToFloat(v, from))), to)
	case from.Kind() == ir.KindFloat && to.Kind() == ir.KindFloat:
		return floatBits(bitsToFloat(v, from), to)
	}
	return v
}

// normInt sign-extends v to the canonical 64-bit register representation
// of integer type t.
func normInt(v uint64, t ir.Type) uint64 {
	return normReg(v, normModeOf(t))
}

// normModeOf reduces a destination type to the normalization mode the
// compiled bytecode stores per instruction: the narrow integer width to
// sign-extend from, or 0 for the identity (i64, pointers, floats).
func normModeOf(t ir.Type) uint8 {
	it, ok := t.(*ir.IntType)
	if !ok {
		return 0
	}
	switch it.Bits {
	case 1, 8, 16, 32:
		return uint8(it.Bits)
	default:
		return 0
	}
}

// normReg applies a precomputed normalization mode; shared by both loops.
func normReg(v uint64, mode uint8) uint64 {
	switch mode {
	case 1:
		return v & 1
	case 8:
		return uint64(int64(int8(v)))
	case 16:
		return uint64(int64(int16(v)))
	case 32:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

// normLoaded normalizes a freshly loaded raw value for register storage.
func normLoaded(raw uint64, t ir.Type) uint64 {
	if t.Kind() == ir.KindInt {
		return normInt(raw, t)
	}
	return raw // pointers and floats are stored raw
}

func maskTo(v uint64, width uint) uint64 {
	if width >= 64 {
		return v
	}
	return v & ((1 << width) - 1)
}

// isF32 reports whether t is the 32-bit float type (whose register bits
// are an f32 pattern rather than f64).
func isF32(t ir.Type) bool {
	ft, ok := t.(*ir.FloatType)
	return ok && ft.Bits == 32
}

func floatBits(f float64, t ir.Type) uint64 { return floatBitsF(f, isF32(t)) }

func floatBitsF(f float64, f32 bool) uint64 {
	if f32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func bitsToFloat(v uint64, t ir.Type) float64 { return bitsToFloatF(v, isF32(t)) }

func bitsToFloatF(v uint64, f32 bool) float64 {
	if f32 {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

func fieldOffset(elem ir.Type, field int) (int, error) {
	switch et := elem.(type) {
	case *ir.StructType:
		return et.Offset(field), nil
	case *ir.UnionType:
		return 0, nil
	default:
		return 0, fmt.Errorf("fieldaddr through pointer to %s", elem)
	}
}

// PaddedSize returns sizeof(t) rounded up to t's alignment, i.e. the
// per-element footprint in arrays and array allocations. Exported so
// transforms and the fault injector share the VM's layout math.
func PaddedSize(t ir.Type) int {
	size := t.Size()
	a := t.Align()
	if a > 1 {
		size = (size + a - 1) / a * a
	}
	if size == 0 {
		size = 1
	}
	return size
}

// Stride returns the stride IndexAddr advances by: indexing a pointer
// to an array steps over the array's element type; indexing any other
// pointer steps over the pointee (C-style pointer arithmetic).
func Stride(elem ir.Type) int {
	if at, ok := elem.(*ir.ArrayType); ok {
		elem = at.Elem
	}
	return PaddedSize(elem)
}
