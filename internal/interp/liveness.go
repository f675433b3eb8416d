// Live-range frame narrowing: the linear-scan pass that packs each
// compiled function's register frame to live width. ir register ids are
// allocated monotonically by the front end and the DPMR transformer, so a
// function's NumRegs is usually far larger than the number of values live
// at any point; since the executor zeroes the whole frame on every call
// (exec.go's clear) and frames stack in the per-VM arena, the dead width
// is pure per-call cost. This pass computes register liveness over the
// fused flat code, derives one conservative [lo, hi] interval per
// register, assigns intervals to frame slots linear-scan style, and
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

func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// packFrame rewrites cf's code, call argument lists, and parameter ids so
// registers occupy a minimal frame of linear-scan-packed slots, and sets
// cf.numRegs to the packed width. External functions have no code and are
// left untouched.
func packFrame(cf *compiledFunc) {
	n := len(cf.code)
	if n == 0 || cf.numRegs == 0 {
		return
	}
	regs := int32(cf.numRegs)

	// Reachability from entry: unreachable slots (fused constituents, dead
	// code) contribute nothing to liveness and are remapped with a fallback
	// afterwards.
	reachable := make([]bool, n)
	var succBuf []int32
	stack := []int32{0}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc < 0 || int(pc) >= n || reachable[pc] {
			continue
		}
		reachable[pc] = true
		succBuf = successors(cf.code, int(pc), succBuf[:0])
		stack = append(stack, succBuf...)
	}

	// Per-pc use/def sets from the execution-ordered references: a use only
	// counts if the register was not already defined earlier in the same
	// instruction (fused ops read their own fresh writes). All bitsets come
	// from one backing allocation — this pass runs per compiled function
	// and its footprint shows up in campaign build cost.
	words := (int(regs) + 63) / 64
	backing := make([]uint64, 3*n*words)
	carve := func(pc, bank int) bitset { return bitset(backing[(bank*n+pc)*words : (bank*n+pc+1)*words]) }
	uses := make([]bitset, n)
	defs := make([]bitset, n)
	var refBuf []regRef
	for pc := 0; pc < n; pc++ {
		if !reachable[pc] {
			continue
		}
		u, d := carve(pc, 0), carve(pc, 1)
		refBuf = appendRefs(refBuf[:0], &cf.code[pc], cf.calls)
		for _, ref := range refBuf {
			if ref.reg >= regs {
				// A register id out of the declared range would make the
				// mapping tables unsound; bail out, keeping the unpacked
				// (always-correct) frame.
				return
			}
			if ref.def {
				d.add(ref.reg)
			} else if !d.has(ref.reg) {
				u.add(ref.reg)
			}
		}
		uses[pc], defs[pc] = u, d
	}

	// Backward liveness to fixpoint: liveIn = uses ∪ (∪ liveIn(succ) − defs).
	liveIn := make([]bitset, n)
	for pc := range liveIn {
		liveIn[pc] = carve(pc, 2)
	}
	out := newBitset(int(regs))
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			if !reachable[pc] {
				continue
			}
			clear(out)
			succBuf = successors(cf.code, pc, succBuf[:0])
			for _, s := range succBuf {
				if int(s) < n && s >= 0 {
					out.orWith(liveIn[s])
				}
			}
			for i := range out {
				out[i] = (out[i] &^ defs[pc][i]) | uses[pc][i]
			}
			if liveIn[pc].orWith(out) {
				changed = true
			}
		}
	}

	// Conservative intervals: [lo, hi] spans every pc where the register is
	// referenced or live-in. Entry liveness and parameters anchor at -1.
	const unset = int32(-2)
	lo := make([]int32, regs)
	hi := make([]int32, regs)
	for r := range lo {
		lo[r], hi[r] = unset, unset
	}
	touch := func(r, pc int32) {
		if lo[r] == unset || pc < lo[r] {
			lo[r] = pc
		}
		if hi[r] == unset || pc > hi[r] {
			hi[r] = pc
		}
	}
	for _, p := range cf.params {
		touch(p, -1)
	}
	entryLive := newBitset(int(regs))
	entryLive.copyFrom(liveIn[0])
	for pc := 0; pc < n; pc++ {
		if !reachable[pc] {
			continue
		}
		for wi, w := range liveIn[pc] {
			for w != 0 {
				touch(int32(wi*64+bits.TrailingZeros64(w)), int32(pc))
				w &= w - 1
			}
		}
		refBuf = appendRefs(refBuf[:0], &cf.code[pc], cf.calls)
		for _, ref := range refBuf {
			touch(ref.reg, int32(pc))
		}
	}
	// needZero: live into entry without being a parameter — the walker
	// gives such reads 0 from the fresh frame, so the packed slot must be
	// virgin (never written by a parameter or an earlier tenant).
	needZero := newBitset(int(regs))
	needZero.copyFrom(entryLive)
	for _, p := range cf.params {
		needZero.remove(p)
		touch(p, -1)
		lo[p] = -1
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
		if lo[r] != unset {
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
	for pc := 0; pc < n; pc++ {
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
