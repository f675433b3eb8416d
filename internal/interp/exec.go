// The compiled-bytecode execution loop: the fast counterpart of the
// tree-walking VM.Call body in interp.go. Dispatch is a single dense
// switch over pre-decoded opcodes; register frames and call-argument
// slices are carved from per-VM arenas instead of allocated per call; the
// step/cycle clocks are kept in locals; the trace hook is absent entirely
// (a traced VM never binds a Program — see Config.Prog), and the Yield
// hook is reached only through the yielding opcodes a CompileYielding
// program carries. Every cycle
// charge, trap, and error below mirrors the tree-walker exactly; the
// differential tests assert bit-identical Results across both loops.
package interp

import (
	"fmt"
	"math"
	"unsafe"

	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// execCompiled runs one compiled internal function. It is the compiled
// analogue of the tree-walking VM.Call body and preserves its exact
// check order: depth, then arity, then frame setup.
func (vm *VM) execCompiled(cf *compiledFunc, args []uint64) (uint64, error) {
	if vm.depth >= vm.maxDep {
		return 0, &mem.Trap{Reason: "call stack depth exceeded"}
	}
	if len(args) != len(cf.params) {
		return 0, fmt.Errorf("call of %s with %d args, want %d", cf.name, len(args), len(cf.params))
	}
	vm.depth++
	mark := vm.Space.PushFrame()
	rbase := len(vm.regStack)
	if n := rbase + cf.numRegs; n <= cap(vm.regStack) {
		vm.regStack = vm.regStack[:n]
	} else {
		vm.regStack = append(vm.regStack, make([]uint64, cf.numRegs)...)
	}
	frame := vm.regStack[rbase : rbase+cf.numRegs]
	// Frames are recycled arena space: zero them so an unwritten register
	// reads 0, exactly like the walker's fresh make.
	clear(frame)
	for i, p := range cf.params {
		frame[p] = args[i]
	}
	// Unchecked base pointers for the dispatch loop: validateFunc proved
	// every register operand inside the frame and every reachable pc inside
	// the code, so the per-access bounds checks the slice forms would pay
	// (several per dispatched instruction) carry no information. The frame
	// pointer stays valid even if a nested call grows vm.regStack onto a
	// new backing array: this frame's slice keeps the old array alive, and
	// only this invocation touches its region.
	var fp unsafe.Pointer
	if len(frame) > 0 {
		fp = unsafe.Pointer(&frame[0])
	}

	// The step and cycle clocks live in locals for the duration of the
	// loop, avoiding VM-field read-modify-writes per instruction. Because
	// every instruction charges one base cycle alongside its step, the loop
	// keeps only steps and the cycles-beyond-steps surplus (extra): one
	// increment per dispatch instead of two, with cycles = steps + extra
	// reconstructed at every point the clocks are observable from outside —
	// nested calls, externs (vm.Charge), the shared allocation helper — and
	// on every exit path by the deferred cleanup.
	steps, extra := vm.steps, vm.cycles-vm.steps
	defer func() {
		vm.steps, vm.cycles = steps, steps+extra
		vm.regStack = vm.regStack[:rbase]
		vm.Space.PopFrame(mark)
		vm.depth--
	}()
	flush := func() { vm.steps, vm.cycles = steps, steps+extra }

	limit := vm.limit
	space := vm.Space
	codeBase := unsafe.Pointer(&cf.code[0])
	pc := 0
	for {
		in := (*decodedInstr)(unsafe.Add(codeBase, uintptr(pc)*instrSize))
		steps++
		if steps > limit {
			// The fell-off guard is exempt: the walker's ip-past-end check
			// fires before the step is counted or the budget consulted
			// (its case below un-counts the step for the same reason).
			if in.op != opFellOff {
				return 0, timeoutErr{}
			}
		}
		switch in.op {
		case opFellOff:
			steps--
			return 0, cf.errs[in.imm]
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
			extra += costDiv
			if *reg(fp, in.b) == 0 {
				return 0, &mem.Trap{Reason: "integer division by zero"}
			}
			*reg(fp, in.dst) = normReg(uint64(int64(*reg(fp, in.a))/int64(*reg(fp, in.b))), in.norm)
		case opUDiv:
			extra += costDiv
			w := uint(in.imm)
			if maskTo(*reg(fp, in.b), w) == 0 {
				return 0, &mem.Trap{Reason: "integer division by zero"}
			}
			*reg(fp, in.dst) = normReg(maskTo(*reg(fp, in.a), w)/maskTo(*reg(fp, in.b), w), in.norm)
		case opSRem:
			extra += costDiv
			if *reg(fp, in.b) == 0 {
				return 0, &mem.Trap{Reason: "integer division by zero"}
			}
			*reg(fp, in.dst) = normReg(uint64(int64(*reg(fp, in.a))%int64(*reg(fp, in.b))), in.norm)
		case opURem:
			extra += costDiv
			w := uint(in.imm)
			if maskTo(*reg(fp, in.b), w) == 0 {
				return 0, &mem.Trap{Reason: "integer division by zero"}
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
			extra += costFloatOp
			*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) + math.Float64frombits(*reg(fp, in.b)))
		case opFSub64:
			extra += costFloatOp
			*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) - math.Float64frombits(*reg(fp, in.b)))
		case opFMul64:
			extra += costFloatOp
			*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) * math.Float64frombits(*reg(fp, in.b)))
		case opFDiv64:
			extra += costFloatOp
			*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) / math.Float64frombits(*reg(fp, in.b)))
		case opFBin:
			extra += costFloatOp
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
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			extra += costBranch
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
			extra = vm.cycles - steps
			if err != nil {
				return 0, err
			}
			*reg(fp, in.dst) = addr
		case opFree:
			extra += costFreeOp
			if trap := space.Free(*reg(fp, in.a)); trap != nil {
				return 0, trap
			}
		case opLoadY:
			// A yielding twin (CompileYielding) flushes the clocks, so the
			// hook sees the steps and cycles the walker would show it, and
			// then yields and runs its plain twin. The step was counted
			// and the budget checked above, as the walker does before it
			// yields.
			flush()
			vm.yield()
			fallthrough
		case opLoad:
			raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.imm))
			extra += costLoadBase + cost
			if trap != nil {
				return 0, trap
			}
			*reg(fp, in.dst) = normReg(raw, in.norm)
		case opStoreY:
			flush()
			vm.yield()
			fallthrough
		case opStore:
			cost, trap := space.StoreCosted(*reg(fp, in.a), int(in.imm), *reg(fp, in.b))
			extra += costStoreBase + cost
			if trap != nil {
				return 0, trap
			}
		case opLoadLoadAssert:
			// Fused DPMR check triple: app load, replica load, equality
			// assert. Each constituent counts its own step and budget check
			// in sequence, so traps, timeouts, and cycles replay exactly.
			raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.sub&0xF))
			extra += costLoadBase + cost
			if trap != nil {
				return 0, trap
			}
			x := normReg(raw, in.norm)
			*reg(fp, in.dst) = x
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			raw, cost, trap = space.LoadCosted(*reg(fp, in.b), int(in.sub>>4))
			extra += costLoadBase + cost
			if trap != nil {
				return 0, trap
			}
			y := normReg(raw, in.flags)
			*reg(fp, int32(in.imm)) = y
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			extra += costAssert
			if x != y {
				return 0, &Detection{Reason: fmt.Sprintf("replica mismatch in %s: %#x != %#x", cf.name, x, y)}
			}
			pc += 3
			continue
		case opStore2:
			// Fused replicated store pair.
			cost, trap := space.StoreCosted(*reg(fp, in.a), int(in.sub&0xF), *reg(fp, in.b))
			extra += costStoreBase + cost
			if trap != nil {
				return 0, trap
			}
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			cost, trap = space.StoreCosted(*reg(fp, int32(in.imm)), int(in.sub>>4), *reg(fp, int32(in.imm2)))
			extra += costStoreBase + cost
			if trap != nil {
				return 0, trap
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
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			raw, cost, trap := space.LoadCosted(addr, int(in.sub))
			extra += costLoadBase + cost
			if trap != nil {
				return 0, trap
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
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			cost, trap := space.StoreCosted(addr, int(in.sub), *reg(fp, int32(in.imm2)))
			extra += costStoreBase + cost
			if trap != nil {
				return 0, trap
			}
			pc += 2
			continue
		case opConstAdd:
			// Fused const + add (profile-selected, fusion.go). The constant
			// lands first, then the add reads its operands from the frame,
			// so a dependent add sees exactly what the unfused pair computes.
			*reg(fp, in.dst) = in.imm
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			*reg(fp, int32(uint32(in.imm2))) = normReg(*reg(fp, in.a)+*reg(fp, in.b), in.norm)
			pc += 2
			continue
		case opConstAddBr:
			// Fused const + add + br: the loop-increment tail.
			*reg(fp, in.dst) = in.imm
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			*reg(fp, int32(in.imm2&0xFFFF)) = normReg(*reg(fp, in.a)+*reg(fp, in.b), in.norm)
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			extra += costBranch
			pc = int(uint32(in.imm2 >> 32))
			continue
		case opConstLoad:
			// Fused const + load (the load's pointer register is read after
			// the constant lands, covering the materialized-address shape).
			*reg(fp, in.dst) = in.imm
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			raw, cost, trap := space.LoadCosted(*reg(fp, in.a), int(in.sub))
			extra += costLoadBase + cost
			if trap != nil {
				return 0, trap
			}
			*reg(fp, int32(uint32(in.imm2))) = normReg(raw, in.norm)
			pc += 2
			continue
		case opIndexAddr2:
			// Fused back-to-back element-address computes (SDS's app+replica
			// address pair); the second compute's regs/stride unpack from
			// imm2 as four u16 fields.
			*reg(fp, in.dst) = uint64(int64(*reg(fp, in.a)) + int64(*reg(fp, in.b))*int64(in.imm))
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			p2 := in.imm2
			*reg(fp, int32(p2&0xFFFF)) = uint64(int64(*reg(fp, int32((p2>>16)&0xFFFF))) +
				int64(*reg(fp, int32((p2>>32)&0xFFFF)))*int64(p2>>48))
			pc += 2
			continue
		case opFMulAdd64:
			// Fused all-f64 multiply + add; operands are re-read from the
			// frame after the product lands, so dependent adds chain exactly.
			extra += costFloatOp
			*reg(fp, in.dst) = math.Float64bits(math.Float64frombits(*reg(fp, in.a)) * math.Float64frombits(*reg(fp, in.b)))
			steps++
			if steps > limit {
				return 0, timeoutErr{}
			}
			extra += costFloatOp
			p2 := in.imm2
			*reg(fp, int32(p2&0xFFFF)) = math.Float64bits(math.Float64frombits(*reg(fp, int32((p2>>16)&0xFFFF))) +
				math.Float64frombits(*reg(fp, int32((p2>>32)&0xFFFF))))
			pc += 2
			continue
		case opCall:
			extra += costCall
			cs := &cf.calls[in.imm]
			ab := len(vm.argStack)
			for _, r := range cs.args {
				vm.argStack = append(vm.argStack, *reg(fp, r))
			}
			var rv uint64
			var err error
			flush()
			if cs.callee != nil {
				rv, err = vm.execCompiled(cs.callee, vm.argStack[ab:])
			} else {
				rv, err = vm.Call(cs.fn, vm.argStack[ab:])
			}
			steps, extra = vm.steps, vm.cycles-vm.steps
			vm.argStack = vm.argStack[:ab]
			if err != nil {
				return 0, err
			}
			if in.dst >= 0 {
				*reg(fp, in.dst) = rv
			}
		case opCallIndirect:
			extra += costCall
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
					return 0, &mem.Trap{Reason: "indirect call through invalid function pointer", Addr: fnp}
				}
				vm.icTags[slot] = fnp
				vm.icFuncs[slot] = t
				target = t
			}
			cs := &cf.calls[in.imm]
			ab := len(vm.argStack)
			for _, r := range cs.args {
				vm.argStack = append(vm.argStack, *reg(fp, r))
			}
			var rv uint64
			var err error
			flush()
			if target.external {
				rv, err = vm.Call(target.fn, vm.argStack[ab:])
			} else {
				rv, err = vm.execCompiled(target, vm.argStack[ab:])
			}
			steps, extra = vm.steps, vm.cycles-vm.steps
			vm.argStack = vm.argStack[:ab]
			if err != nil {
				return 0, err
			}
			if in.dst >= 0 {
				*reg(fp, in.dst) = rv
			}
		case opRet:
			extra += costRet
			if in.a >= 0 {
				return *reg(fp, in.a), nil
			}
			return 0, nil
		case opBr:
			extra += costBranch
			pc = int(in.dst)
			continue
		case opCondBr:
			extra += costBranch
			if *reg(fp, in.a) != 0 {
				pc = int(in.dst)
			} else {
				pc = int(in.b)
			}
			continue
		case opAssert:
			extra += costAssert
			if *reg(fp, in.a) != *reg(fp, in.b) {
				return 0, &Detection{Reason: fmt.Sprintf("replica mismatch in %s: %#x != %#x", cf.name, *reg(fp, in.a), *reg(fp, in.b))}
			}
		case opFaultPoint:
			if !vm.faultSeen {
				vm.faultSeen = true
				vm.faultCycle = steps + extra
			}
		case opRandInt:
			extra += costIntrinsic
			v, err := randInRange(vm.Rand(), int64(in.imm), int64(in.imm2))
			if err != nil {
				return 0, err
			}
			*reg(fp, in.dst) = v
		case opHeapBufSize:
			extra += costIntrinsic
			size, trap := space.HeapPayloadSize(*reg(fp, in.a))
			if trap != nil {
				return 0, trap
			}
			*reg(fp, in.dst) = size
		case opOutput:
			extra += costOutput
			vm.emitOutputRaw(ir.OutputMode(in.sub), in.flags&flagX32 != 0, *reg(fp, in.a))
		case opExit:
			code := int64(0)
			if in.a >= 0 {
				code = int64(*reg(fp, in.a))
			}
			return 0, &ExitRequest{Code: code}
		case opAtomicRMWY:
			flush()
			vm.yield()
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
			extra = vm.cycles - steps
			if err != nil {
				return 0, err
			}
			*reg(fp, in.dst) = old
		case opAtomicCASY:
			flush()
			vm.yield()
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
			extra = vm.cycles - steps
			if err != nil {
				return 0, err
			}
			*reg(fp, in.dst) = cur
		case opFenceY:
			flush()
			vm.yield()
			fallthrough
		case opFence:
			extra += costFence
		case opErr:
			return 0, cf.errs[in.imm]
		default:
			return 0, fmt.Errorf("interp: corrupt program: opcode %d in %s", in.op, cf.name)
		}
		pc++
	}
}

// instrSize is the byte stride of the flat code array.
const instrSize = unsafe.Sizeof(decodedInstr{})

// reg returns frame slot r through the unchecked base pointer; sound for
// every register operand validateFunc admitted.
func reg(fp unsafe.Pointer, r int32) *uint64 {
	return (*uint64)(unsafe.Add(fp, uintptr(uint32(r))*8))
}
