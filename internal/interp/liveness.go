// Live-range frame narrowing: the linear-scan pass that packs each
// compiled function's register frame to live width. ir register ids are
// allocated monotonically by the front end and the DPMR transformer, so a
// function's NumRegs is usually far larger than the number of values live
// at any point; since the executor zeroes the whole frame on every call
// (exec.go's clear) and frames stack in the per-VM arena, the dead width
// is pure per-call cost. This pass computes register liveness over the
// basic blocks of the fused flat code, derives one conservative [lo, hi]
// interval per register, assigns intervals to frame slots linear-scan
// style, and
// rewrites every register reference — instruction fields, call argument
// lists, parameter ids — to the packed slots.
//
// Soundness leans on two properties. First, liveness is a real backward
// dataflow over the flat code's control edges, so a register that is live
// around a loop has its interval extended across the whole loop body by
// propagation — two intervals that do not overlap can never hold live
// values at the same time, at any execution point. Second, a register
// that is live into the function entry (readable before any write: the
// walker semantics give such reads 0) keeps the zero guarantee by only
// accepting a virgin slot — one no earlier tenant or parameter has
// written.
package interp

import "math/bits"

// regRef is one register reference of an instruction, in execution order.
type regRef struct {
	reg int32
	def bool
}

// instrLength is the number of code slots op owns: fused superinstructions
// carry their constituents' now-unreachable slots with them.
func instrLength(op opcode) int {
	switch op {
	case opLoadLoadAssert, opConstAddBr:
		return 3
	case opStore2, opFieldLoad, opIndexLoad, opFieldStore, opIndexStore,
		opConstAdd, opConstLoad, opIndexAddr2, opFMulAdd64, opCmpBr:
		return 2
	}
	return 1
}

// successors appends the pcs control can reach from code[pc].
func successors(code []decodedInstr, pc int, dst []int32) []int32 {
	in := &code[pc]
	switch in.op {
	case opBr:
		return append(dst, in.dst)
	case opCondBr:
		return append(dst, in.dst, in.b)
	case opCmpBr:
		return append(dst, int32(uint32(in.imm)), int32(uint32(in.imm2)))
	case opConstAddBr:
		return append(dst, int32(uint32(in.imm2>>32)))
	case opRet, opExit, opErr, opFellOff:
		return dst
	}
	return append(dst, int32(pc+instrLength(in.op)))
}

// use and def wrap a register id as an execution-ordered reference;
// negative ids (absent operands) are dropped by appendRefs' callers via
// the reg >= 0 filter below.
func use(r int32) regRef { return regRef{reg: r} }
func def(r int32) regRef { return regRef{reg: r, def: true} }

// appendRefs appends code[pc]'s register references in the exact order
// the executor performs them. This is the one place the packing pass
// models each opcode's operand usage; exec.go's cases are the authority
// it mirrors.
func appendRefs(refs []regRef, in *decodedInstr, calls []callSite) []regRef {
	add := func(rs ...regRef) {
		for _, r := range rs {
			if r.reg >= 0 {
				refs = append(refs, r)
			}
		}
	}
	switch in.op {
	case opInvalid, opFellOff, opErr, opFaultPoint, opBr:
		// no registers
	case opConst, opGlobalAddr, opRandInt:
		add(def(in.dst))
	case opMove, opMoveNorm, opConvert, opHeapBufSize, opLoad, opLoadY, opFieldAddr:
		add(use(in.a), def(in.dst))
	case opAdd, opSub, opMul, opSDiv, opUDiv, opSRem, opURem,
		opAnd, opOr, opXor, opShl, opLShr, opAShr,
		opFAdd64, opFSub64, opFMul64, opFDiv64, opFBin,
		opCmp, opIndexAddr:
		add(use(in.a), use(in.b), def(in.dst))
	case opCmpBr:
		add(use(in.a), use(in.b), def(in.dst))
	case opStore, opStoreY:
		add(use(in.a), use(in.b))
	case opFieldLoad:
		add(use(in.a), def(in.dst), def(int32(uint32(in.imm2))))
	case opIndexLoad:
		add(use(in.a), use(in.b), def(in.dst), def(int32(uint32(in.imm2))))
	case opFieldStore:
		add(use(in.a), def(in.dst), use(int32(uint32(in.imm2))))
	case opIndexStore:
		add(use(in.a), use(in.b), def(in.dst), use(int32(uint32(in.imm2))))
	case opLoadLoadAssert:
		add(use(in.a), def(in.dst), use(in.b), def(int32(uint32(in.imm))))
	case opStore2:
		add(use(in.a), use(in.b), use(int32(uint32(in.imm))), use(int32(uint32(in.imm2))))
	case opConstAdd:
		add(def(in.dst), use(in.a), use(in.b), def(int32(uint32(in.imm2))))
	case opConstAddBr:
		add(def(in.dst), use(in.a), use(in.b), def(int32(in.imm2&0xFFFF)))
	case opConstLoad:
		add(def(in.dst), use(in.a), def(int32(uint32(in.imm2))))
	case opIndexAddr2:
		add(use(in.a), use(in.b), def(in.dst),
			use(int32((in.imm2>>16)&0xFFFF)), use(int32((in.imm2>>32)&0xFFFF)),
			def(int32(in.imm2&0xFFFF)))
	case opFMulAdd64:
		add(use(in.a), use(in.b), def(in.dst),
			use(int32((in.imm2>>16)&0xFFFF)), use(int32((in.imm2>>32)&0xFFFF)),
			def(int32(in.imm2&0xFFFF)))
	case opAlloc:
		add(use(in.a), def(in.dst))
	case opAtomicRMW, opAtomicRMWY:
		add(use(in.a), use(in.b))
		if in.imm2 != 0 {
			add(use(int32(in.imm2 - 1)))
		}
		add(def(in.dst))
	case opAtomicCAS, opAtomicCASY:
		add(use(in.a), use(in.b), use(int32(uint32(in.imm2))))
		if r := in.imm2 >> 32; r != 0 {
			add(use(int32(r - 1)))
		}
		add(def(in.dst))
	case opFence, opFenceY:
		// no registers
	case opFree, opOutput, opCondBr, opRet, opExit:
		add(use(in.a))
	case opAssert:
		add(use(in.a), use(in.b))
	case opCall, opCallIndirect:
		if in.op == opCallIndirect {
			add(use(in.a)) // imm2 is the IC slot index, not a register
		}
		for _, r := range calls[in.imm].args {
			add(use(r))
		}
		add(def(in.dst))
	default:
		// An opcode this pass cannot model would make packing unsound;
		// corrupt programs already fail in Compile's recover.
		panic("interp: packFrame: unmodeled opcode")
	}
	return refs
}

// bitset is a dense register set.
type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (s bitset) has(r int32) bool  { return s[r>>6]&(1<<(uint(r)&63)) != 0 }
func (s bitset) add(r int32)       { s[r>>6] |= 1 << (uint(r) & 63) }
func (s bitset) remove(r int32)    { s[r>>6] &^= 1 << (uint(r) & 63) }
func (s bitset) copyFrom(o bitset) { copy(s, o) }

// orWith ors o into s and reports whether s changed.
func (s bitset) orWith(o bitset) bool {
	changed := false
	for i, w := range o {
		if n := s[i] | w; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// liveRanges holds one conservative [lo, hi] pc interval per register:
// every pc where the register is referenced or live-in, with -1 standing
// for the function entry. Registers never touched keep lo = hi = unsetPC.
type liveRanges struct {
	lo, hi []int32
}

const unsetPC = int32(-2)

func newLiveRanges(regs int32) liveRanges {
	lr := liveRanges{lo: make([]int32, regs), hi: make([]int32, regs)}
	for r := range lr.lo {
		lr.lo[r], lr.hi[r] = unsetPC, unsetPC
	}
	return lr
}

func (lr liveRanges) touch(r, pc int32) {
	if lr.lo[r] == unsetPC || pc < lr.lo[r] {
		lr.lo[r] = pc
	}
	if lr.hi[r] == unsetPC || pc > lr.hi[r] {
		lr.hi[r] = pc
	}
}

// touchAll touches every register of s at pc.
func (lr liveRanges) touchAll(s bitset, pc int32) {
	for wi, w := range s {
		for w != 0 {
			lr.touch(int32(wi*64+bits.TrailingZeros64(w)), pc)
			w &= w - 1
		}
	}
}

// packFrame rewrites cf's code, call argument lists, and parameter ids so
// registers occupy a minimal frame of linear-scan-packed slots, and sets
// cf.numRegs to the packed width. External functions have no code and are
// left untouched.
func packFrame(cf *compiledFunc) {
	if len(cf.code) == 0 || cf.numRegs == 0 {
		return
	}
	if lr, entryLive, ok := blockRanges(cf); ok {
		packSlots(cf, lr, entryLive)
	}
}

// basicBlock is one straight-line run of reachable code: control enters
// only at start and leaves only from end, and succs indexes the blocks
// end can reach.
type basicBlock struct {
	start, end int32
	succs      []int32
}

// blockRanges computes cf's live ranges and the registers live into its
// entry by solving liveness per basic block rather than per pc. Within a
// block the ranges need no per-pc sets: a register live at some pc of
// the block stays live, walking backwards, until a reference of it or
// the block's start, and walking forwards until a reference or the
// block's end. So touching each register live into a block at its first
// pc, each one live out of it at its last pc, and every reference at its
// own pc spans exactly the pcs a per-pc solution would. ok is false when
// an instruction names a register beyond cf.numRegs: the frame is then
// left unpacked.
func blockRanges(cf *compiledFunc) (lr liveRanges, entryLive bitset, ok bool) {
	code := cf.code
	n := len(code)
	regs := int32(cf.numRegs)

	// One walk from the entry finds the reachable pcs and the block
	// leaders: a pc leads unless its one predecessor falls through to it
	// as that predecessor's only successor. Unreachable slots (fused
	// constituents, dead code) take no part in liveness and are remapped
	// with a fallback afterwards.
	const (
		reached uint8 = 1 << iota
		entered       // some predecessor already reaches it
		leader
	)
	state := make([]uint8, n)
	state[0] = reached | leader
	var succBuf []int32
	stack := []int32{0}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succBuf = successors(code, int(pc), succBuf[:0])
		straight := len(succBuf) == 1 && succBuf[0] == pc+int32(instrLength(code[pc].op))
		for _, s := range succBuf {
			if s < 0 || int(s) >= n {
				continue
			}
			if !straight || state[s]&entered != 0 {
				state[s] |= leader
			}
			state[s] |= entered
			if state[s]&reached == 0 {
				state[s] |= reached
				stack = append(stack, s)
			}
		}
	}
	blockOf := make([]int32, n)
	nb := 0
	for pc, st := range state {
		if st&(reached|leader) == reached|leader {
			blockOf[pc] = int32(nb)
			nb++
		}
	}

	// Per-block use and def sets, from each instruction's references in
	// execution order: a use counts only if no earlier reference of the
	// block (fused ops read their own fresh writes) defined the register.
	// Every reference also touches its own pc. All bitsets share one
	// backing allocation.
	words := (int(regs) + 63) / 64
	backing := make([]uint64, 3*nb*words)
	carve := func(b, bank int) bitset { return bitset(backing[(bank*nb+b)*words : (bank*nb+b+1)*words]) }
	blocks := make([]basicBlock, 0, nb)
	lr = newLiveRanges(regs)
	var refBuf []regRef
	for pc := 0; pc < n; pc++ {
		if state[pc]&(reached|leader) != reached|leader {
			continue
		}
		b := len(blocks)
		use, defs := carve(b, 0), carve(b, 1)
		p := int32(pc)
		for {
			refBuf = appendRefs(refBuf[:0], &code[p], cf.calls)
			for _, ref := range refBuf {
				if ref.reg >= regs {
					return liveRanges{}, nil, false
				}
				lr.touch(ref.reg, p)
				if ref.def {
					defs.add(ref.reg)
				} else if !defs.has(ref.reg) {
					use.add(ref.reg)
				}
			}
			succBuf = successors(code, int(p), succBuf[:0])
			next := p + int32(instrLength(code[p].op))
			if len(succBuf) == 1 && succBuf[0] == next && int(next) < n && state[next]&leader == 0 {
				p = next
				continue
			}
			break
		}
		bb := basicBlock{start: int32(pc), end: p}
		for _, s := range succBuf {
			if s >= 0 && int(s) < n {
				bb.succs = append(bb.succs, blockOf[s])
			}
		}
		blocks = append(blocks, bb)
	}

	// Backward liveness to fixpoint over blocks:
	// liveIn = use ∪ (∪ liveIn(succ) − def).
	liveOut := func(b int, out bitset) {
		clear(out)
		for _, s := range blocks[b].succs {
			out.orWith(carve(int(s), 2))
		}
	}
	out := newBitset(int(regs))
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			liveOut(b, out)
			use, defs := carve(b, 0), carve(b, 1)
			for i := range out {
				out[i] = (out[i] &^ defs[i]) | use[i]
			}
			if carve(b, 2).orWith(out) {
				changed = true
			}
		}
	}
	for b, bb := range blocks {
		lr.touchAll(carve(b, 2), bb.start)
		liveOut(b, out)
		lr.touchAll(out, bb.end)
	}
	return lr, carve(0, 2), true
}

// packSlots anchors the parameters and the registers live into the entry
// at -1, assigns the live ranges lr to frame slots linear-scan style, and
// rewrites cf to the packed slots when that narrows the frame.
func packSlots(cf *compiledFunc, lr liveRanges, entryLive bitset) {
	regs := int32(cf.numRegs)
	lo, hi := lr.lo, lr.hi
	// needZero: live into entry without being a parameter — the walker
	// gives such reads 0 from the fresh frame, so the packed slot must be
	// virgin (never written by a parameter or an earlier tenant).
	needZero := newBitset(int(regs))
	needZero.copyFrom(entryLive)
	for _, p := range cf.params {
		needZero.remove(p)
		lr.touch(p, -1)
	}
	for wi, w := range needZero {
		for w != 0 {
			lo[wi*64+bits.TrailingZeros64(w)] = -1
			w &= w - 1
		}
	}

	// Linear scan: order intervals by start, reuse any slot whose previous
	// tenant's interval has ended (virgin slots only for needZero regs).
	order := make([]int32, 0, regs)
	for r := int32(0); r < regs; r++ {
		if lo[r] != unsetPC {
			order = append(order, r)
		}
	}
	// Insertion sort by lo (register count per function is modest).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lo[order[j]] < lo[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	type slotState struct {
		end     int32 // current tenant's interval end
		written bool  // ever had a tenant or parameter (not virgin)
	}
	var slots []slotState
	slotOf := make([]int32, regs)
	for r := range slotOf {
		slotOf[r] = -1
	}
	for _, r := range order {
		assigned := int32(-1)
		for si := range slots {
			if slots[si].end < lo[r] && !(needZero.has(r) && slots[si].written) {
				assigned = int32(si)
				break
			}
		}
		if assigned < 0 {
			slots = append(slots, slotState{})
			assigned = int32(len(slots) - 1)
		}
		slots[assigned].end = hi[r]
		slots[assigned].written = true
		slotOf[r] = assigned
	}
	packed := len(slots)
	if packed == 0 {
		packed = 1 // degenerate: keep frames non-empty for simplicity
	}
	if packed >= int(regs) {
		return // nothing gained; keep identity ids
	}

	// Rewrite every register reference. Registers referenced only from
	// unreachable slots (fused constituents) have no interval; they can
	// never execute, so they fold onto slot 0.
	mapReg := func(r int32) int32 {
		if r < 0 {
			return r
		}
		if r < regs && slotOf[r] >= 0 {
			return slotOf[r]
		}
		return 0
	}
	for i := range cf.params {
		cf.params[i] = mapReg(cf.params[i])
	}
	for i := range cf.calls {
		for k := range cf.calls[i].args {
			cf.calls[i].args[k] = mapReg(cf.calls[i].args[k])
		}
	}
	for pc := range cf.code {
		remapInstr(&cf.code[pc], mapReg)
	}
	cf.numRegs = packed
}

// remapInstr rewrites in's register fields through mapReg, leaving pc
// targets, immediates, widths, and IC slot indices untouched. The field
// roles here mirror appendRefs exactly.
func remapInstr(in *decodedInstr, mapReg func(int32) int32) {
	mapU16 := func(v uint64) uint64 { return uint64(uint16(mapReg(int32(v & 0xFFFF)))) }
	switch in.op {
	case opInvalid, opFellOff, opErr, opFaultPoint, opBr:
		// no registers (opBr's dst is a pc)
	case opConst, opGlobalAddr, opRandInt:
		in.dst = mapReg(in.dst)
	case opMove, opMoveNorm, opConvert, opHeapBufSize, opLoad, opLoadY, opFieldAddr, opAlloc:
		in.dst, in.a = mapReg(in.dst), mapReg(in.a)
	case opAdd, opSub, opMul, opSDiv, opUDiv, opSRem, opURem,
		opAnd, opOr, opXor, opShl, opLShr, opAShr,
		opFAdd64, opFSub64, opFMul64, opFDiv64, opFBin,
		opCmp, opIndexAddr, opCmpBr:
		// opCmpBr's imm/imm2 are pc targets, not registers.
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
	case opStore, opStoreY, opAssert:
		in.a, in.b = mapReg(in.a), mapReg(in.b)
	case opFieldLoad, opFieldStore:
		in.dst, in.a = mapReg(in.dst), mapReg(in.a)
		in.imm2 = uint64(uint32(mapReg(int32(uint32(in.imm2)))))
	case opIndexLoad, opIndexStore:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		in.imm2 = uint64(uint32(mapReg(int32(uint32(in.imm2)))))
	case opLoadLoadAssert:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		in.imm = uint64(uint32(mapReg(int32(uint32(in.imm)))))
	case opStore2:
		in.a, in.b = mapReg(in.a), mapReg(in.b)
		in.imm = uint64(uint32(mapReg(int32(uint32(in.imm)))))
		in.imm2 = uint64(uint32(mapReg(int32(uint32(in.imm2)))))
	case opConstAdd:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		in.imm2 = uint64(uint32(mapReg(int32(uint32(in.imm2)))))
	case opConstAddBr:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		in.imm2 = in.imm2&^0xFFFF | mapU16(in.imm2)
	case opConstLoad:
		in.dst, in.a = mapReg(in.dst), mapReg(in.a)
		in.imm2 = uint64(uint32(mapReg(int32(uint32(in.imm2)))))
	case opIndexAddr2, opFMulAdd64:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		in.imm2 = in.imm2&^0xFFFFFFFFFFFF |
			mapU16(in.imm2) | mapU16(in.imm2>>16)<<16 | mapU16(in.imm2>>32)<<32
	case opAtomicRMW, opAtomicRMWY:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		if in.imm2 != 0 {
			in.imm2 = uint64(uint32(mapReg(int32(in.imm2-1)))) + 1
		}
	case opAtomicCAS, opAtomicCASY:
		in.dst, in.a, in.b = mapReg(in.dst), mapReg(in.a), mapReg(in.b)
		packed := uint64(uint32(mapReg(int32(uint32(in.imm2)))))
		if r := in.imm2 >> 32; r != 0 {
			packed |= (uint64(uint32(mapReg(int32(r-1)))) + 1) << 32
		}
		in.imm2 = packed
	case opFence, opFenceY:
		// no registers
	case opCall:
		in.dst = mapReg(in.dst) // args live in the callSite, remapped once
	case opCallIndirect:
		in.dst, in.a = mapReg(in.dst), mapReg(in.a) // imm2 is the IC slot
	case opFree, opOutput, opCondBr, opRet, opExit:
		// opCondBr's dst/b are pc targets; only the condition is a register.
		in.a = mapReg(in.a)
	}
}
