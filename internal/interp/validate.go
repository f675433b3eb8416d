// Compile-time validation of the invariants the executor's unchecked
// accesses rely on. exec.go fetches instructions and register slots
// through raw pointer arithmetic (no per-dispatch bounds checks), which
// is sound only if every register operand of every instruction lies
// inside the function's frame and every pc control can reach lies inside
// its code. decode and packFrame establish these invariants by
// construction; validateFunc re-proves them over the finished code so a
// compiler bug cannot silently become an out-of-bounds access — a
// function that fails validation fails the whole compilation (via panic,
// recovered in Compile), and the caller falls back to the tree-walker,
// which checks everything dynamically.
//
// It also proves the yield discipline of the program's mode: a yielding
// program (CompileYielding) reaches shared memory only through yielding
// opcodes, so no access can skip the scheduler's yield, and a plain
// program holds none of them.
package interp

import "fmt"

// validateFunc checks one compiled internal function of a yielding or a
// plain program. It panics (caught by Compile's recover) rather than
// returning an error so a violation anywhere aborts the whole program
// compilation.
func validateFunc(cf *compiledFunc, yielding bool) {
	n := len(cf.code)
	if n == 0 {
		// Internal functions always carry at least a fell-off guard; empty
		// code would let the executor fetch instruction 0 out of bounds.
		panic(fmt.Sprintf("validate %s: empty code", cf.name))
	}
	regs := int32(cf.numRegs)
	fail := func(pc int, what string) {
		panic(fmt.Sprintf("validate %s: pc %d: %s", cf.name, pc, what))
	}
	for _, p := range cf.params {
		if p < 0 || p >= regs {
			panic(fmt.Sprintf("validate %s: param register %d outside frame [0,%d)", cf.name, p, regs))
		}
	}
	var refs []regRef
	var succ []int32
	for pc := 0; pc < n; pc++ {
		in := &cf.code[pc]
		if !yieldSafe(in.op, yielding) {
			fail(pc, fmt.Sprintf("opcode %d breaks the yield discipline (yielding %v)", in.op, yielding))
		}
		// Table indices consulted before any register math.
		switch in.op {
		case opCall, opCallIndirect:
			if in.imm >= uint64(len(cf.calls)) {
				fail(pc, "call site index out of range")
			}
		case opErr, opFellOff:
			if in.imm >= uint64(len(cf.errs)) {
				fail(pc, "error index out of range")
			}
		}
		// Every register operand, via the same execution-ordered model the
		// frame packer uses (appendRefs panics on an unmodeled opcode).
		refs = appendRefs(refs[:0], in, cf.calls)
		for _, ref := range refs {
			if ref.reg >= regs {
				fail(pc, fmt.Sprintf("register %d outside frame [0,%d)", ref.reg, regs))
			}
		}
		// Every successor pc: branch targets and sequential fallthrough
		// (fused heads step over their constituents' slots). Blocks end in
		// terminators or the synthetic fell-off guard, so even the final
		// slot never falls through past the end.
		succ = successors(cf.code, pc, succ[:0])
		for _, t := range succ {
			if t < 0 || int(t) >= n {
				fail(pc, fmt.Sprintf("successor pc %d outside code [0,%d)", t, n))
			}
		}
	}
}

// yieldSafe reports whether op may appear in a program of the given mode.
// A yielding program must yield before every shared-memory access, so it
// holds no plain or fused access; a plain program holds no yielding
// opcode.
func yieldSafe(op opcode, yielding bool) bool {
	switch op {
	case opLoadY, opStoreY, opAtomicRMWY, opAtomicCASY, opFenceY:
		return yielding
	case opLoad, opStore, opAtomicRMW, opAtomicCAS, opFence,
		opLoadLoadAssert, opStore2, opFieldLoad, opIndexLoad,
		opFieldStore, opIndexStore, opConstLoad:
		return !yielding
	}
	return true
}
