// The compiled-bytecode execution loop: the fast counterpart of the
// tree-walking VM.Call body in interp.go. Dispatch is a single dense
// switch over pre-decoded opcodes; calls and returns push and pop frames
// on an explicit per-VM stack without leaving the loop, with register
// frames carved from a per-VM arena instead of allocated per call; the
// step/cycle clocks are kept in locals; the trace hook is absent entirely
// (a traced VM never binds a Program — see Config.Prog), and the Yield
// hook is reached only through the yielding opcodes a CompileYielding
// program carries. Because no Go frame sits between two IR frames, a
// yield can park the VM: the loop returns with every frame kept, and
// Resume re-enters it at the parked instruction. A run that comes back
// to an identical, write-free machine state is stuck in that loop until
// its budget runs out; the loop fast-forwards it by whole periods
// (cycle.go) at no cost to the per-instruction step check, which also
// stands for the detector's next look. Every cycle charge, trap, and
// error below mirrors the tree-walker exactly, a fast-forwarded run
// included; the differential tests assert bit-identical Results across
// both loops.
package interp

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// clock is the dispatch loop's step count and its cycles beyond one per
// step. The loop hands its clock to the out-of-line exits by address,
// which keeps it in memory for the whole loop; held in registers, the two
// counters crowded the frame pointer and pc out, and the compiler spilled
// and reloaded all four at every dispatch.
type clock struct{ steps, extra uint64 }

// frame is one activation on the compiled loop's explicit call stack:
// the function, the pc it continues at (its call site while a callee
// runs, its yielding instruction while the VM is parked), the base of
// its register window in vm.regStack, and the stack mark its allocas pop
// back to.
type frame struct {
	cf    *compiledFunc
	pc    int
	rbase int
	mark  mem.StackMark
}

// errParked is dispatch's signal that the VM parked at a yield; Resume
// turns it into a nil Result. It never escapes the package.
var errParked = errors.New("interp: parked")

// ErrYieldInCallback ends a started VM (Start) that reaches a yield in
// code an extern called back into, such as qsort's comparator: that
// dispatch segment runs under the extern's Go frame, so it can neither
// park nor, without blocking, let another thread run.
var ErrYieldInCallback = errors.New("yield inside extern callback")

// errCannotPark answers a Yield hook that asks a VM to park where it
// cannot: the tree-walker, or a compiled VM not driven by Resume.
var errCannotPark = errors.New("interp: Yield hook parked a VM that runs without Resume")

// execCompiled runs one compiled internal function on a dispatch
// segment of its own, based at its frame, until it returns, an error
// unwinds it or — in the root segment of a started VM — the VM parks. It
// is the compiled analogue of the tree-walking VM.Call body and preserves
// its exact check order: depth, then arity, then frame setup.
func (vm *VM) execCompiled(cf *compiledFunc, args []uint64) (rv uint64, err error) {
	outer := vm.segBase
	vm.segBase = len(vm.frames)
	if regs, perr := vm.pushFrame(cf, len(args)); perr != nil {
		err = perr
	} else {
		for i, p := range cf.params {
			regs[p] = args[i]
		}
		rv, err = vm.dispatch()
	}
	vm.segBase = outer
	return rv, err
}

// pushFrame opens cf's frame on the explicit stack after the walker's
// checks, depth then arity, and returns its register window, zeroed so an
// unwritten register reads 0 exactly like the walker's fresh make. The
// caller stores the arguments.
func (vm *VM) pushFrame(cf *compiledFunc, nargs int) ([]uint64, error) {
	if vm.depth >= vm.maxDep {
		return nil, &mem.Trap{Reason: "call stack depth exceeded"}
	}
	if nargs != len(cf.params) {
		return nil, fmt.Errorf("call of %s with %d args, want %d", cf.name, nargs, len(cf.params))
	}
	vm.depth++
	mark := vm.Space.PushFrame()
	rbase := len(vm.regStack)
	if n := rbase + cf.numRegs; n <= cap(vm.regStack) {
		vm.regStack = vm.regStack[:n]
	} else {
		vm.regStack = append(vm.regStack, make([]uint64, cf.numRegs)...)
	}
	regs := vm.regStack[rbase:]
	clear(regs)
	vm.frames = append(vm.frames, frame{cf: cf, rbase: rbase, mark: mark})
	return regs, nil
}

// pushCall opens callee's frame for call site cs at pc of the top frame,
// which it leaves at the call site, copying the argument registers
// across.
func (vm *VM) pushCall(callee *compiledFunc, cs *callSite, pc int) error {
	caller := &vm.frames[len(vm.frames)-1]
	caller.pc = pc
	rbase := caller.rbase
	regs, err := vm.pushFrame(callee, len(cs.args))
	if err != nil {
		return err
	}
	src := vm.regStack[rbase:]
	for i, p := range callee.params {
		regs[p] = src[cs.args[i]]
	}
	return nil
}

// ret pops the top frame, which returns rv. It reports whether that frame
// was the segment's base frame (vm.segBase); otherwise it writes rv to
// the caller's call destination and moves the caller past its call site.
func (vm *VM) ret(rv uint64) bool {
	n := len(vm.frames) - 1
	f := &vm.frames[n]
	vm.regStack = vm.regStack[:f.rbase]
	vm.Space.PopFrame(f.mark)
	vm.depth--
	vm.frames = vm.frames[:n]
	if n == vm.segBase {
		return true
	}
	vm.retGo(rv, vm.frames[n-1].cf.code[vm.frames[n-1].pc].dst)
	return false
}

// retGo completes a call of the top frame, at its saved pc, that returned
// rv: it writes the call's destination register dst (none when
// negative) and moves the frame past the call site. A call that left the
// loop — an extern, which may call back into IR and so move vm.regStack
// and vm.frames — completes through it too.
func (vm *VM) retGo(rv uint64, dst int32) {
	f := &vm.frames[len(vm.frames)-1]
	if dst >= 0 {
		vm.regStack[f.rbase+int(dst)] = rv
	}
	f.pc++
}

// unwind ends a dispatch segment on err: it publishes the clocks and pops
// every frame the segment opened — registers, allocas and depth. Like
// fellOff and park, it is kept out of line: dispatch calls these cold
// exits from dozens of sites, and inlining them bloats the hot loop and
// lengthens its live ranges.
//
//go:noinline
func (vm *VM) unwind(c *clock, err error) (uint64, error) {
	base := vm.segBase
	vm.steps, vm.cycles = c.steps, c.steps+c.extra
	if n := len(vm.frames); n > base {
		f := &vm.frames[base]
		vm.regStack = vm.regStack[:f.rbase]
		vm.Space.PopFrame(f.mark)
		vm.depth -= n - base
		vm.frames = vm.frames[:base]
	}
	return 0, err
}

// fellOff is unwind for the fell-off guard, whose step the walker never
// counts.
//
//go:noinline
func (vm *VM) fellOff(c *clock, err error) (uint64, error) {
	c.steps--
	return vm.unwind(c, err)
}

// park ends a dispatch segment at the yielding instruction pc once the
// Yield hook has run: err unwinds it like any other error, and otherwise
// the VM parks. Parking un-counts the instruction's step and saves its
// pc, so the next Resume re-dispatches it — counting the step and
// checking the budget again, with the same outcome — and, finding
// vm.parked, goes straight on to the access.
//
//go:noinline
func (vm *VM) park(pc int, c *clock, err error) (uint64, error) {
	if err != nil {
		return vm.unwind(c, err)
	}
	c.steps--
	vm.steps, vm.cycles = c.steps, c.steps+c.extra
	vm.frames[len(vm.frames)-1].pc = pc
	vm.parked = true
	return 0, errParked
}

// dispatch runs the top frame of the explicit stack. Calls push frames
// and returns pop them without leaving the loop, so the segment runs
// until its base frame (vm.segBase) returns, an error unwinds every frame
// down to that base, or the VM parks at a yield with its frames kept for
// Resume, which only the root segment (base 0) of a started VM may.
func (vm *VM) dispatch() (uint64, error) {
	// The step and cycle clocks live in clk for the duration of the loop,
	// avoiding VM-field read-modify-writes per instruction. Because
	// every instruction charges one base cycle alongside its step, the loop
	// keeps only steps and the cycles-beyond-steps surplus (extra): one
	// increment per dispatch instead of two, with cycles = steps + extra
	// reconstructed at every point the clocks are observable from outside —
	// externs (vm.Charge), the shared allocation helper, the Yield hook —
	// and on every exit path.
	clk := clock{vm.steps, vm.cycles - vm.steps}
	flush := func() { vm.steps, vm.cycles = clk.steps, clk.steps+clk.extra }

	// limit is the step budget, or the periodic fast-forward's next look
	// when that comes first (cycle.go): the per-instruction step check
	// then stands for both, and only a step past limit pays for telling
	// them apart. Only the root segment looks.
	limit := vm.limit
	if vm.segBase == 0 {
		limit = min(limit, vm.cyc.next)
	}
	space := vm.Space
	// The outer loop enters the top frame, the inner one dispatches its
	// code. A call or a return updates the explicit stack and re-enters
	// the outer loop, which keeps the frame's function, code and register
	// base invariant over the inner loop, where the compiler holds them
	// in registers.
frame:
	for {
		top := &vm.frames[len(vm.frames)-1]
		cf, pc := top.cf, top.pc
		// Unchecked base pointers: validateFunc proved every register
		// operand inside its frame and every reachable pc inside the code,
		// so the per-access bounds checks would carry no information. Any
		// frame push — a call, or an extern calling back into IR — may grow
		// vm.regStack onto a new backing array, so fp is re-derived each
		// time the loop enters a frame.
		var fp unsafe.Pointer
		if cf.numRegs > 0 {
			fp = unsafe.Pointer(&vm.regStack[top.rbase])
		}
		codeBase := unsafe.Pointer(&cf.code[0])
		for {
			in := (*decodedInstr)(unsafe.Add(codeBase, uintptr(pc)*instrSize))
			clk.steps++
			if clk.steps > limit {
				// The fell-off guard is exempt: the walker's ip-past-end check
				// fires before the step is counted or the budget consulted
				// (its case below un-counts the step for the same reason).
				// Past the local limit but within the budget, the limit was
				// the next look of the periodic fast-forward (cycle.go).
				if in.op != opFellOff {
					if clk.steps > vm.limit {
						return vm.unwind(&clk, timeoutErr{})
					}
					limit = vm.look(&clk, pc)
					continue frame
				}
			}
			switch in.op {
			case opFellOff:
				return vm.fellOff(&clk, cf.errs[in.imm])
			case opConst:
				*reg(fp, in.dst) = in.imm
			case opGlobalAddr:
				*reg(fp, in.dst) = vm.globalAddrs[in.imm]
			case opMove:
				*reg(fp, in.dst) = *reg(fp, in.a)
			case opMoveNorm:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a), in.norm)
			case opAdd:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)+*reg(fp, in.b), in.norm)
			case opSub:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)-*reg(fp, in.b), in.norm)
			case opMul:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)**reg(fp, in.b), in.norm)
			case opSDiv:
				clk.extra += costDiv
				if *reg(fp, in.b) == 0 {
					return vm.unwind(&clk, &mem.Trap{Reason: "integer division by zero"})
				}
				*reg(fp, in.dst) = normReg(uint64(int64(*reg(fp, in.a))/int64(*reg(fp, in.b))), in.norm)
			case opUDiv:
				clk.extra += costDiv
				w := uint(in.imm)
				if maskTo(*reg(fp, in.b), w) == 0 {
					return vm.unwind(&clk, &mem.Trap{Reason: "integer division by zero"})
				}
				*reg(fp, in.dst) = normReg(maskTo(*reg(fp, in.a), w)/maskTo(*reg(fp, in.b), w), in.norm)
			case opSRem:
				clk.extra += costDiv
				if *reg(fp, in.b) == 0 {
					return vm.unwind(&clk, &mem.Trap{Reason: "integer division by zero"})
				}
				*reg(fp, in.dst) = normReg(uint64(int64(*reg(fp, in.a))%int64(*reg(fp, in.b))), in.norm)
			case opURem:
				clk.extra += costDiv
				w := uint(in.imm)
				if maskTo(*reg(fp, in.b), w) == 0 {
					return vm.unwind(&clk, &mem.Trap{Reason: "integer division by zero"})
				}
				*reg(fp, in.dst) = normReg(maskTo(*reg(fp, in.a), w)%maskTo(*reg(fp, in.b), w), in.norm)
			case opAnd:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)&*reg(fp, in.b), in.norm)
			case opOr:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)|*reg(fp, in.b), in.norm)
			case opXor:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)^*reg(fp, in.b), in.norm)
			case opShl:
				*reg(fp, in.dst) = normReg(*reg(fp, in.a)<<(*reg(fp, in.b)&63), in.norm)
			case opLShr:
				*reg(fp, in.dst) = normReg(maskTo(*reg(fp, in.a), uint(in.imm))>>(*reg(fp, in.b)&63), in.norm)
			case opAShr:
				*reg(fp, in.dst) = normReg(uint64(int64(*reg(fp, in.a))>>(*reg(fp, in.b)&63)), in.norm)
			case opFAdd64:
				clk.extra += costFloatOp
				*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) + math.Float64frombits(*reg(fp, in.b)))
			case opFSub64:
				clk.extra += costFloatOp
				*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) - math.Float64frombits(*reg(fp, in.b)))
			case opFMul64:
				clk.extra += costFloatOp
				*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) * math.Float64frombits(*reg(fp, in.b)))
			case opFDiv64:
				clk.extra += costFloatOp
				*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) / math.Float64frombits(*reg(fp, in.b)))
			case opFBin:
				clk.extra += costFloatOp
				*reg(fp, in.dst) = floatBinScalar(ir.BinKind(in.sub), *reg(fp, in.a), *reg(fp, in.b),
					in.flags&flagX32 != 0, in.flags&flagY32 != 0, in.flags&flagD32 != 0)
			case opCmp:
				*reg(fp, in.dst) = cmpScalar(ir.CmpKind(in.sub), *reg(fp, in.a), *reg(fp, in.b),
					in.flags&flagX32 != 0, in.flags&flagY32 != 0)
			case opCmpBr:
				// Fused compare + conditional branch (the dominant loop-header
				// pair). Steps, cycles, and the budget check replay exactly as
				// the two separate instructions would: the compare was counted
				// by the loop header above; the branch is counted here.
				v := cmpScalar(ir.CmpKind(in.sub), *reg(fp, in.a), *reg(fp, in.b),
					in.flags&flagX32 != 0, in.flags&flagY32 != 0)
				*reg(fp, in.dst) = v
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				clk.extra += costBranch
				if v != 0 {
					pc = int(int32(in.imm))
				} else {
					pc = int(int32(in.imm2))
				}
				continue
			case opConvert:
				v := *reg(fp, in.a)
				switch in.sub {
				case convIntToInt:
					v = normReg(v, in.norm)
				case convIntToFloat:
					v = floatBitsF(float64(int64(v)), in.flags&flagD32 != 0)
				case convFloatToInt:
					v = normReg(uint64(int64(bitsToFloatF(v, in.flags&flagX32 != 0))), in.norm)
				case convFloatToFloat:
					v = floatBitsF(bitsToFloatF(v, in.flags&flagX32 != 0), in.flags&flagD32 != 0)
				}
				*reg(fp, in.dst) = v
			case opAlloc:
				count := int64(1)
				if in.a >= 0 {
					count = int64(*reg(fp, in.a))
				}
				flush()
				addr, err := vm.allocMem(ir.AllocKind(in.sub), count, in.imm)
				clk.extra = vm.cycles - clk.steps
				if err != nil {
					return vm.unwind(&clk, err)
				}
				*reg(fp, in.dst) = addr
			case opFree:
				clk.extra += costFreeOp
				if trap := space.Free(*reg(fp, in.a)); trap != nil {
					return vm.unwind(&clk, trap)
				}
			case opLoadY:
				// A yielding twin (CompileYielding) flushes the clocks, so the
				// hook sees the steps and cycles the walker would show it, and
				// then yields and runs its plain twin. The step was counted
				// and the budget checked above, as the walker does before it
				// yields. When the hook parks the VM, the segment ends here;
				// the re-dispatch on Resume finds vm.parked and skips the
				// yield it already took.
				if !vm.parked {
					flush()
					if park, err := vm.yield(vm.segBase == 0); park || err != nil {
						return vm.park(pc, &clk, err)
					}
				}
				vm.parked = false
				fallthrough
			case opLoad:
				raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.imm))
				clk.extra += costLoadBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				*reg(fp, in.dst) = normReg(raw, in.norm)
			case opStoreY:
				if !vm.parked {
					flush()
					if park, err := vm.yield(vm.segBase == 0); park || err != nil {
						return vm.park(pc, &clk, err)
					}
				}
				vm.parked = false
				fallthrough
			case opStore:
				cost, trap := space.StoreCosted(*reg(fp, in.a), int(in.imm), *reg(fp, in.b))
				clk.extra += costStoreBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
			case opLoadLoadAssert:
				// Fused DPMR check triple: app load, replica load, equality
				// assert. Each constituent counts its own step and budget check
				// in sequence, so traps, timeouts, and cycles replay exactly.
				raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.sub&0xF))
				clk.extra += costLoadBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				x := normReg(raw, in.norm)
				*reg(fp, in.dst) = x
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				raw, cost, trap = space.LoadCosted(*reg(fp, in.b), int(in.sub>>4))
				clk.extra += costLoadBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				y := normReg(raw, in.flags)
				*reg(fp, int32(in.imm)) = y
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				clk.extra += costAssert
				if x != y {
					return vm.unwind(&clk, &Detection{Reason: fmt.Sprintf("replica mismatch in %s: %#x != %#x", cf.name, x, y)})
				}
				pc += 3
				continue
			case opStore2:
				// Fused replicated store pair.
				cost, trap := space.StoreCosted(*reg(fp, in.a), int(in.sub&0xF), *reg(fp, in.b))
				clk.extra += costStoreBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				cost, trap = space.StoreCosted(*reg(fp, int32(in.imm)), int(in.sub>>4), *reg(fp, int32(in.imm2)))
				clk.extra += costStoreBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				pc += 2
				continue
			case opFieldAddr:
				*reg(fp, in.dst) = *reg(fp, in.a) + in.imm
			case opIndexAddr:
				*reg(fp, in.dst) = uint64(int64(*reg(fp, in.a)) + int64(*reg(fp, in.b))*int64(in.imm))
			case opFieldLoad, opIndexLoad:
				// Fused address-compute + load. The address instruction was
				// counted by the loop header; the load counts itself below,
				// replaying the separate instructions' accounting exactly.
				var addr uint64
				if in.op == opFieldLoad {
					addr = *reg(fp, in.a) + in.imm
				} else {
					addr = uint64(int64(*reg(fp, in.a)) + int64(*reg(fp, in.b))*int64(in.imm))
				}
				*reg(fp, in.dst) = addr
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				raw, cost, trap := space.LoadCosted(addr, int(in.sub))
				clk.extra += costLoadBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				*reg(fp, int32(in.imm2)) = normReg(raw, in.norm)
				pc += 2
				continue
			case opFieldStore, opIndexStore:
				// Fused address-compute + store, mirroring opFieldLoad.
				var addr uint64
				if in.op == opFieldStore {
					addr = *reg(fp, in.a) + in.imm
				} else {
					addr = uint64(int64(*reg(fp, in.a)) + int64(*reg(fp, in.b))*int64(in.imm))
				}
				*reg(fp, in.dst) = addr
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				cost, trap := space.StoreCosted(addr, int(in.sub), *reg(fp, int32(in.imm2)))
				clk.extra += costStoreBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				pc += 2
				continue
			case opConstAdd:
				// Fused const + add (profile-selected, fusion.go). The constant
				// lands first, then the add reads its operands from the frame,
				// so a dependent add sees exactly what the unfused pair computes.
				*reg(fp, in.dst) = in.imm
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				*reg(fp, int32(uint32(in.imm2))) = normReg(*reg(fp, in.a)+*reg(fp, in.b), in.norm)
				pc += 2
				continue
			case opConstAddBr:
				// Fused const + add + br: the loop-increment tail.
				*reg(fp, in.dst) = in.imm
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				*reg(fp, int32(in.imm2&0xFFFF)) = normReg(*reg(fp, in.a)+*reg(fp, in.b), in.norm)
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				clk.extra += costBranch
				pc = int(uint32(in.imm2 >> 32))
				continue
			case opConstLoad:
				// Fused const + load (the load's pointer register is read after
				// the constant lands, covering the materialized-address shape).
				*reg(fp, in.dst) = in.imm
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.sub))
				clk.extra += costLoadBase + cost
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				*reg(fp, int32(uint32(in.imm2))) = normReg(raw, in.norm)
				pc += 2
				continue
			case opIndexAddr2:
				// Fused back-to-back element-address computes (SDS's app+replica
				// address pair); the second compute's regs/stride unpack from
				// imm2 as four u16 fields.
				*reg(fp, in.dst) = uint64(int64(*reg(fp, in.a)) + int64(*reg(fp, in.b))*int64(in.imm))
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				p2 := in.imm2
				*reg(fp, int32(p2&0xFFFF)) = uint64(int64(*reg(fp, int32((p2>>16)&0xFFFF))) +
					int64(*reg(fp, int32((p2>>32)&0xFFFF)))*int64(p2>>48))
				pc += 2
				continue
			case opFMulAdd64:
				// Fused all-f64 multiply + add; operands are re-read from the
				// frame after the product lands, so dependent adds chain exactly.
				clk.extra += costFloatOp
				*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) * math.Float64frombits(*reg(fp, in.b)))
				clk.steps++
				if clk.steps > limit && clk.steps > vm.limit {
					return vm.unwind(&clk, timeoutErr{})
				}
				clk.extra += costFloatOp
				p2 := in.imm2
				*reg(fp, int32(p2&0xFFFF)) = math.Float64bits(math.Float64frombits(*reg(fp, int32((p2>>16)&0xFFFF))) +
					math.Float64frombits(*reg(fp, int32((p2>>32)&0xFFFF))))
				pc += 2
				continue
			case opCall:
				clk.extra += costCall
				cs := &cf.calls[in.imm]
				if callee := cs.callee; callee != nil {
					// An internal call pushes the callee's frame and carries on
					// dispatching: no Go call, and no clock flush.
					if err := vm.pushCall(callee, cs, pc); err != nil {
						return vm.unwind(&clk, err)
					}
					continue frame
				}
				flush()
				rv, err := vm.callGo(cs.fn, cs, fp)
				clk.steps, clk.extra = vm.steps, vm.cycles-vm.steps
				if err != nil {
					return vm.unwind(&clk, err)
				}
				// The extern may have called back into IR, moving
				// vm.regStack: re-enter the frame past the call.
				vm.frames[len(vm.frames)-1].pc = pc
				vm.retGo(rv, in.dst)
				continue frame
			case opCallIndirect:
				clk.extra += costCall
				fnp := *reg(fp, in.a)
				// Monomorphic inline cache, keyed by this site's imm2 slot: one
				// tag compare replaces the byAddr map lookup on repeat targets.
				// Tags start 0 and valid function addresses are all nonzero
				// (funcAddrBase), so the fp != 0 guard makes the empty slot a
				// guaranteed miss; a null pointer falls through to the map and
				// traps exactly like the walker.
				if vm.icTags == nil {
					vm.icTags = make([]uint64, vm.prog.indirectSites)
					vm.icFuncs = make([]*compiledFunc, vm.prog.indirectSites)
				}
				slot := in.imm2
				var target *compiledFunc
				if fnp != 0 && vm.icTags[slot] == fnp {
					target = vm.icFuncs[slot]
				} else {
					t, ok := vm.prog.byAddr[fnp]
					if !ok {
						return vm.unwind(&clk, &mem.Trap{Reason: "indirect call through invalid function pointer", Addr: fnp})
					}
					vm.icTags[slot] = fnp
					vm.icFuncs[slot] = t
					target = t
				}
				cs := &cf.calls[in.imm]
				if !target.external {
					if err := vm.pushCall(target, cs, pc); err != nil {
						return vm.unwind(&clk, err)
					}
					continue frame
				}
				flush()
				rv, err := vm.callGo(target.fn, cs, fp)
				clk.steps, clk.extra = vm.steps, vm.cycles-vm.steps
				if err != nil {
					return vm.unwind(&clk, err)
				}
				vm.frames[len(vm.frames)-1].pc = pc
				vm.retGo(rv, in.dst)
				continue frame
			case opRet:
				clk.extra += costRet
				var rv uint64
				if in.a >= 0 {
					rv = *reg(fp, in.a)
				}
				if vm.ret(rv) {
					vm.steps, vm.cycles = clk.steps, clk.steps+clk.extra
					return rv, nil
				}
				continue frame
			case opBr:
				clk.extra += costBranch
				pc = int(in.dst)
				continue
			case opCondBr:
				clk.extra += costBranch
				if *reg(fp, in.a) != 0 {
					pc = int(in.dst)
				} else {
					pc = int(in.b)
				}
				continue
			case opAssert:
				clk.extra += costAssert
				if *reg(fp, in.a) != *reg(fp, in.b) {
					return vm.unwind(&clk, &Detection{Reason: fmt.Sprintf("replica mismatch in %s: %#x != %#x", cf.name, *reg(fp, in.a), *reg(fp, in.b))})
				}
			case opFaultPoint:
				if !vm.faultSeen {
					vm.faultSeen = true
					vm.faultCycle = clk.steps + clk.extra
				}
			case opRandInt:
				clk.extra += costIntrinsic
				vm.cyc.effects++
				v, err := randInRange(vm.Rand(), int64(in.imm), int64(in.imm2))
				if err != nil {
					return vm.unwind(&clk, err)
				}
				*reg(fp, in.dst) = v
			case opHeapBufSize:
				clk.extra += costIntrinsic
				size, trap := space.HeapPayloadSize(*reg(fp, in.a))
				if trap != nil {
					return vm.unwind(&clk, trap)
				}
				*reg(fp, in.dst) = size
			case opOutput:
				clk.extra += costOutput
				vm.emitOutputRaw(ir.OutputMode(in.sub), in.flags&flagX32 != 0, *reg(fp, in.a))
			case opExit:
				code := int64(0)
				if in.a >= 0 {
					code = int64(*reg(fp, in.a))
				}
				return vm.unwind(&clk, &ExitRequest{Code: code})
			case opAtomicRMWY:
				if !vm.parked {
					flush()
					if park, err := vm.yield(vm.segBase == 0); park || err != nil {
						return vm.park(pc, &clk, err)
					}
				}
				vm.parked = false
				fallthrough
			case opAtomicRMW:
				// The shared helper charges cycles on the VM fields, so the
				// local clocks flush around it exactly like opAlloc.
				raddr, replica := uint64(0), in.imm2 != 0
				if replica {
					raddr = *reg(fp, int32(in.imm2-1))
				}
				addr, val := *reg(fp, in.a), *reg(fp, in.b)
				flush()
				old, err := vm.atomicRMW(ir.AtomicOp(in.sub), addr, val, int(in.imm), in.norm, raddr, replica)
				clk.extra = vm.cycles - clk.steps
				if err != nil {
					return vm.unwind(&clk, err)
				}
				*reg(fp, in.dst) = old
			case opAtomicCASY:
				if !vm.parked {
					flush()
					if park, err := vm.yield(vm.segBase == 0); park || err != nil {
						return vm.park(pc, &clk, err)
					}
				}
				vm.parked = false
				fallthrough
			case opAtomicCAS:
				raddr, replica := uint64(0), in.imm2>>32 != 0
				if replica {
					raddr = *reg(fp, int32(in.imm2>>32)-1)
				}
				addr, oldv := *reg(fp, in.a), *reg(fp, in.b)
				newv := *reg(fp, int32(uint32(in.imm2)))
				flush()
				cur, err := vm.atomicCAS(addr, oldv, newv, int(in.imm), in.norm, raddr, replica)
				clk.extra = vm.cycles - clk.steps
				if err != nil {
					return vm.unwind(&clk, err)
				}
				*reg(fp, in.dst) = cur
			case opFenceY:
				if !vm.parked {
					flush()
					if park, err := vm.yield(vm.segBase == 0); park || err != nil {
						return vm.park(pc, &clk, err)
					}
				}
				vm.parked = false
				fallthrough
			case opFence:
				clk.extra += costFence
			case opErr:
				return vm.unwind(&clk, cf.errs[in.imm])
			default:
				return vm.unwind(&clk, fmt.Errorf("interp: corrupt program: opcode %d in %s", in.op, cf.name))
			}
			pc++
		}
	}
}

// callGo makes call site cs of the frame at fp a Go call, vm.Call, for
// an extern or the walker's nil-callee panic, passing its arguments on
// the per-VM argument stack.
func (vm *VM) callGo(fn *ir.Func, cs *callSite, fp unsafe.Pointer) (uint64, error) {
	vm.cyc.effects++
	ab := len(vm.argStack)
	for _, r := range cs.args {
		vm.argStack = append(vm.argStack, *reg(fp, r))
	}
	rv, err := vm.Call(fn, vm.argStack[ab:])
	vm.argStack = vm.argStack[:ab]
	return rv, err
}

// instrSize is the byte stride of the flat code array.
const instrSize = unsafe.Sizeof(decodedInstr{})

// reg returns frame slot r through the unchecked base pointer; sound for
// every register operand validateFunc admitted.
func reg(fp unsafe.Pointer, r int32) *uint64 {
	return (*uint64)(unsafe.Add(fp, uintptr(uint32(r))*8))
}
