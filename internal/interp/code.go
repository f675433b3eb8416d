// Compilation of frozen modules to a pre-decoded register bytecode.
//
// The tree-walking loop in interp.go pays a type-switch over ir.Instr
// interface values on every executed instruction, re-derives struct
// offsets, array strides, and normalization widths from the type tree,
// restarts blocks at ip=0 on every branch, and looks the callee of every
// direct call up in a name map. Campaign modules are built once, frozen,
// and executed by thousands of trial VMs, so that per-execution work is
// pure waste. Compile pays it once: each function is lowered to a flat
// []decodedInstr of compact opcode structs with branch targets resolved
// to instruction indices, direct callees resolved to *compiledFunc
// pointers, field offsets / strides / sizes / normalization modes
// precomputed, and frame sizes recorded so register frames come from a
// reusable arena (exec.go) instead of make per call.
//
// The contract is bit-identical semantics: a Program must produce exactly
// the Result the tree-walker produces — same cycle clock, traps,
// detections, RNG draws, step budget, and output — for every module,
// which is what keeps golden reports, shard fingerprints, and merge
// byte-identity guarantees intact. Decode therefore never "fixes" IR: a
// construct the walker would fault on at execution time becomes an opErr
// instruction carrying the identical error, executed only if reached, and
// a construct the walker would panic on makes Compile itself fail (the
// caller then simply runs the reference loop).
package interp

import (
	"fmt"

	"dpmr/internal/ir"
)

// opcode enumerates the compiled instruction set. The executor dispatches
// with a single dense switch over these values.
type opcode uint8

const (
	opInvalid opcode = iota
	// opFellOff is the synthetic guard appended after a block that does
	// not end in a terminator (including empty blocks): executing it
	// reproduces the walker's "fell off block" error without counting a
	// step, and keeps control from sliding into the next block's code.
	opFellOff
	// opErr carries a decode-time-proven runtime failure (unknown
	// instruction, fieldaddr through a non-aggregate, ...) that fires only
	// if the instruction is actually executed, exactly like the walker.
	opErr
	opConst
	opGlobalAddr
	opMove
	opMoveNorm
	opAdd
	opSub
	opMul
	opSDiv
	opUDiv
	opSRem
	opURem
	opAnd
	opOr
	opXor
	opShl
	opLShr
	opAShr
	opFAdd64 // all-f64 float binops, specialized for inline dispatch
	opFSub64
	opFMul64
	opFDiv64
	opFBin // mixed-width float binop (and unknown float kinds)
	opCmp
	opCmpBr // fused Cmp + CondBr (imm/imm2 = true/false arm pcs)
	opConvert
	opAlloc
	opFree
	opLoad
	opStore
	opFieldAddr
	opIndexAddr
	// Fused address-compute + memory-op pairs (sub = width, norm = load
	// normalization, imm2 = load destination / store value register). The
	// address register is still written, and both instructions' counting
	// replays exactly.
	opFieldLoad
	opIndexLoad
	opFieldStore
	opIndexStore
	// Fused DPMR instrumentation patterns: the load/load/assert triple
	// every checked load lowers to (Table 2.6), and the duplicated store
	// pair of replicated writes. Widths pack into sub as two nibbles.
	opLoadLoadAssert
	opStore2
	// Profile-selected superinstructions (fusion.go): the top unfused
	// opcode pairs/triples of the workloads' -opstats histograms. Register
	// ids and pc targets of the second (and third) constituent pack into
	// imm2 as 16/32-bit fields; see each fusion rule for the layout.
	opConstAdd   // const K; add (the loop-increment pair)
	opConstAddBr // const K; add; br (the full loop-increment tail)
	opConstLoad  // const K; load (constant-address loads)
	opIndexAddr2 // indexaddr; indexaddr (SDS app+replica address pair)
	opFMulAdd64  // fmul64; fadd64 (the FP multiply-accumulate)
	opCall
	opCallIndirect
	opRet
	opBr
	opCondBr
	opAssert
	opFaultPoint
	opRandInt
	opHeapBufSize
	opOutput
	opExit
	// Atomic memory operations (sub = AtomicOp for RMW, imm = width, norm =
	// result normalization). The optional DPMR replica slot packs as
	// register+1 (0 = unbound) into imm2 — RMW uses all of imm2, CAS packs
	// its New register into the low half and replica+1 into the high half.
	// Both execute through the same VM helpers as the tree-walker, so
	// cycles, traps, and fused replica detections replay bit-identically.
	opAtomicRMW
	opAtomicCAS
	opFence
	// Yielding twins of the five shared-memory opcodes, emitted only by
	// CompileYielding: each hands control to the Config.Yield hook and
	// then executes exactly as its plain twin (same operands, same
	// layout). Plain programs never contain them, so campaign dispatch
	// never reaches their cases.
	opLoadY
	opStoreY
	opAtomicRMWY
	opAtomicCASY
	opFenceY
)

// Operand-width flags (decodedInstr.flags).
const (
	flagX32 uint8 = 1 << iota // first/source operand holds f32 bits
	flagY32                   // second operand holds f32 bits
	flagD32                   // destination holds f32 bits
)

// Convert sub-kinds (decodedInstr.sub for opConvert), mirroring the rule
// order of convert() in interp.go.
const (
	convIdentity uint8 = iota
	convIntToInt
	convIntToFloat
	convFloatToInt
	convFloatToFloat
)

// decodedInstr is one pre-decoded instruction: an opcode plus register
// indices and immediates with every type-tree lookup already performed.
// The struct is kept to 32 bytes — two instructions per cache line — by
// routing the bulky payloads of rare instructions (call descriptors,
// prebuilt errors) through per-function side tables indexed by imm.
//
// Field overloading: branches reuse the register fields as pc targets
// (Br: dst = target; CondBr: a = condition, dst = true arm, b = false
// arm), and RandInt uses imm/imm2 as its Lo/Hi bounds.
type decodedInstr struct {
	op    opcode
	sub   uint8 // BinKind (opFBin), CmpKind (opCmp), convert kind, OutputMode, AllocKind
	norm  uint8 // destination normalization mode (normReg), 0 = identity
	flags uint8
	dst   int32 // destination register, -1 = none (or branch target pc)
	a     int32 // first operand register (count/cond/value), -1 = none
	b     int32 // second operand register (or CondBr false-arm pc), -1 = none
	imm   uint64
	imm2  uint64
}

// callSite is the out-of-line descriptor of one call instruction.
type callSite struct {
	fn     *ir.Func      // target (externs and walker fallback); nil for indirect
	callee *compiledFunc // target when internal (fast path)
	args   []int32       // argument registers
}

// compiledFunc is one lowered function: its flat code array plus the
// frame geometry the executor needs to carve a register frame from the
// arena, and the side tables its code indexes.
type compiledFunc struct {
	fn       *ir.Func
	name     string
	numRegs  int
	params   []int32 // parameter register ids, in signature order
	code     []decodedInstr
	calls    []callSite // opCall/opCallIndirect descriptors, by imm
	errs     []error    // opErr/opFellOff payloads, by imm
	addr     uint64     // synthetic function address (funcAddrOf)
	external bool
}

// addCall appends a call descriptor and returns its index.
func (cf *compiledFunc) addCall(cs callSite) uint64 {
	cf.calls = append(cf.calls, cs)
	return uint64(len(cf.calls) - 1)
}

// addErr appends a prebuilt error and returns its index.
func (cf *compiledFunc) addErr(err error) uint64 {
	cf.errs = append(cf.errs, err)
	return uint64(len(cf.errs) - 1)
}

// Program is the executable form of one frozen module. It is immutable
// after Compile and, like the module it was compiled from, may back any
// number of concurrently running VMs.
type Program struct {
	mod       *ir.Module
	funcs     []*compiledFunc // parallel to mod.Funcs
	byFn      map[*ir.Func]*compiledFunc
	byAddr    map[uint64]*compiledFunc // synthetic address → function
	globalIdx map[string]int           // global name → module order
	// indirectSites counts opCallIndirect instructions across the program;
	// each one's imm2 is its index into the per-VM inline-cache arrays
	// (exec.go), assigned in compile order.
	indirectSites int
	// yielding marks a CompileYielding program: its shared-memory
	// accesses are yielding opcodes, so NewVM may bind it under a Yield
	// hook.
	yielding bool
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// Yielding reports whether the program was compiled by CompileYielding.
func (p *Program) Yielding() bool { return p.yielding }

// Compile lowers a frozen module to its executable Program. The module
// must be frozen: the program aliases its types and functions and assumes
// they never change. Compilation failures (malformed IR the tree-walker
// would only fault on dynamically) are reported as errors; callers are
// expected to fall back to the reference interpreter, which remains
// semantically authoritative.
func Compile(m *ir.Module) (*Program, error) { return compile(m, false, packFrame) }

// CompileYielding is Compile for concurrent use: every load, store,
// atomic and fence becomes a yielding opcode that invokes Config.Yield
// first, where the tree-walker yields — after the step is counted and
// the budget checked, before the access. Fusion rules that contain a
// load or a store no longer match such code, so every yield point keeps
// a dispatch of its own; the other rules still apply. NewVM binds a
// yielding program under a Yield hook, where it refuses a plain one.
func CompileYielding(m *ir.Module) (*Program, error) { return compile(m, true, packFrame) }

// compile lowers m, packing each function's frame with pack (packFrame
// outside tests).
func compile(m *ir.Module, yielding bool, pack func(*compiledFunc)) (p *Program, err error) {
	if m == nil {
		return nil, fmt.Errorf("interp: Compile of nil module")
	}
	if !m.Frozen() {
		return nil, fmt.Errorf("interp: Compile requires a frozen module (call Freeze first)")
	}
	// Malformed IR can panic the type-tree math (e.g. an out-of-range
	// struct field offset) exactly as it would panic the walker at run
	// time; surface it as a compile error so the caller can tree-walk.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("interp: compiling %s: %v", m.Name, r)
		}
	}()
	p = &Program{
		mod:       m,
		funcs:     make([]*compiledFunc, len(m.Funcs)),
		byFn:      make(map[*ir.Func]*compiledFunc, len(m.Funcs)),
		byAddr:    make(map[uint64]*compiledFunc, len(m.Funcs)),
		globalIdx: make(map[string]int, len(m.Globals)),
		yielding:  yielding,
	}
	for i, g := range m.Globals {
		p.globalIdx[g.Name] = i
	}
	for i, f := range m.Funcs {
		cf := &compiledFunc{
			fn:       f,
			name:     f.Name,
			numRegs:  f.NumRegs(),
			addr:     funcAddrOf(i),
			external: f.External,
			params:   make([]int32, len(f.Params)),
		}
		for k, pr := range f.Params {
			cf.params[k] = int32(pr.ID)
		}
		p.funcs[i] = cf
		p.byFn[f] = cf
		p.byAddr[cf.addr] = cf
	}
	for i, f := range m.Funcs {
		if f.External {
			continue
		}
		p.compileFunc(p.funcs[i], f, pack)
	}
	return p, nil
}

// needsGuard reports whether a block needs the synthetic fell-off guard.
func needsGuard(b *ir.Block) bool {
	return len(b.Instrs) == 0 || !ir.IsTerminator(b.Instrs[len(b.Instrs)-1])
}

func (p *Program) compileFunc(cf *compiledFunc, f *ir.Func, pack func(*compiledFunc)) {
	// Pass 1: lay blocks out contiguously and record each block's first pc
	// so branches resolve to instruction indices.
	start := make(map[*ir.Block]int32, len(f.Blocks))
	n := 0
	for _, b := range f.Blocks {
		start[b] = int32(n)
		n += len(b.Instrs)
		if needsGuard(b) {
			n++
		}
	}
	// Pass 2: decode every instruction plain (one decodedInstr per ir
	// instruction, guards appended where blocks lack terminators); a
	// yielding program swaps each shared-memory opcode for its twin here,
	// so fusion, packing and validation all see the final opcodes.
	code := make([]decodedInstr, 0, n)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			d := p.decode(cf, f, in, start)
			if p.yielding {
				d.op = yieldingTwin(d.op)
			}
			code = append(code, d)
		}
		if needsGuard(b) {
			code = append(code, decodedInstr{
				op:  opFellOff,
				imm: cf.addErr(fmt.Errorf("fell off block %s in %s", b.Name, f.Name)),
			})
		}
	}
	// Pass 3: superinstruction fusion (fusion.go). Fused heads replay each
	// constituent's step/cycle/budget accounting exactly and the pair's
	// layout is preserved — the constituents still occupy their own,
	// now-unreachable slots, so pc assignment is unchanged.
	fuseCode(code)
	cf.code = code
	// Pass 4: live-range frame narrowing (liveness.go) — pack registers to
	// live width so the executor clears and carves smaller frames.
	pack(cf)
	// Pass 5: re-prove the frame- and code-bounds invariants the unchecked
	// executor relies on (validate.go); failure aborts compilation and the
	// caller tree-walks.
	validateFunc(cf, p.yielding)
}

// yieldingTwin returns the yielding twin of a shared-memory opcode, and
// any other opcode unchanged.
func yieldingTwin(op opcode) opcode {
	switch op {
	case opLoad:
		return opLoadY
	case opStore:
		return opStoreY
	case opAtomicRMW:
		return opAtomicRMWY
	case opAtomicCAS:
		return opAtomicCASY
	case opFence:
		return opFenceY
	}
	return op
}

func rid(r *ir.Reg) int32 { return int32(r.ID) }

func (p *Program) decode(cf *compiledFunc, f *ir.Func, in ir.Instr, start map[*ir.Block]int32) decodedInstr {
	blockPC := func(b *ir.Block) int32 {
		pc, ok := start[b]
		if !ok {
			// A branch out of the function: the walker would tree-walk the
			// foreign block, which flat code cannot express. Fail the whole
			// compilation (recovered in Compile) so the caller tree-walks.
			panic(fmt.Sprintf("branch to foreign block %s in %s", b.Name, f.Name))
		}
		return pc
	}
	switch i := in.(type) {
	case *ir.ConstInt:
		return decodedInstr{op: opConst, dst: rid(i.Dst), imm: normInt(uint64(i.Val), i.Dst.Type)}
	case *ir.ConstFloat:
		return decodedInstr{op: opConst, dst: rid(i.Dst), imm: floatBits(i.Val, i.Dst.Type)}
	case *ir.ConstNull:
		return decodedInstr{op: opConst, dst: rid(i.Dst)}
	case *ir.Move:
		return decodedInstr{op: opMove, dst: rid(i.Dst), a: rid(i.Src)}
	case *ir.Bitcast:
		// Pointer reinterpretation is a register copy at run time.
		return decodedInstr{op: opMove, dst: rid(i.Dst), a: rid(i.Src)}
	case *ir.IntToPtr:
		return decodedInstr{op: opMove, dst: rid(i.Dst), a: rid(i.Src)}
	case *ir.PtrToInt:
		return decodedInstr{op: opMoveNorm, dst: rid(i.Dst), a: rid(i.Src), norm: normModeOf(i.Dst.Type)}
	case *ir.BinOp:
		return decodeBinOp(cf, i)
	case *ir.Cmp:
		d := decodedInstr{op: opCmp, sub: uint8(i.Op), dst: rid(i.Dst), a: rid(i.X), b: rid(i.Y)}
		if isF32(i.X.Type) {
			d.flags |= flagX32
		}
		if isF32(i.Y.Type) {
			d.flags |= flagY32
		}
		return d
	case *ir.Convert:
		return decodeConvert(i)
	case *ir.Alloc:
		d := decodedInstr{op: opAlloc, sub: uint8(i.Kind), dst: rid(i.Dst), a: -1, imm: uint64(PaddedSize(i.Elem))}
		if i.Count != nil {
			d.a = rid(i.Count)
		}
		return d
	case *ir.Free:
		return decodedInstr{op: opFree, a: rid(i.Ptr)}
	case *ir.Load:
		return decodedInstr{op: opLoad, dst: rid(i.Dst), a: rid(i.Ptr),
			imm: uint64(i.Dst.Type.Size()), norm: normModeOf(i.Dst.Type)}
	case *ir.Store:
		return decodedInstr{op: opStore, a: rid(i.Ptr), b: rid(i.Val), imm: uint64(i.Val.Type.Size())}
	case *ir.FieldAddr:
		off, err := fieldOffset(i.Ptr.Elem(), i.Field)
		if err != nil {
			return decodedInstr{op: opErr, imm: cf.addErr(err)}
		}
		return decodedInstr{op: opFieldAddr, dst: rid(i.Dst), a: rid(i.Ptr), imm: uint64(off)}
	case *ir.IndexAddr:
		return decodedInstr{op: opIndexAddr, dst: rid(i.Dst), a: rid(i.Ptr), b: rid(i.Index),
			imm: uint64(Stride(i.Ptr.Elem()))}
	case *ir.FuncAddr:
		// Function addresses are a pure function of module order; an
		// unknown name reads as address 0, exactly like the walker's map
		// miss.
		var addr uint64
		if target := p.mod.Func(i.Fn); target != nil {
			addr = p.byFn[target].addr
		}
		return decodedInstr{op: opConst, dst: rid(i.Dst), imm: addr}
	case *ir.GlobalAddr:
		if gi, ok := p.globalIdx[i.G]; ok {
			return decodedInstr{op: opGlobalAddr, dst: rid(i.Dst), imm: uint64(gi)}
		}
		return decodedInstr{op: opConst, dst: rid(i.Dst)} // walker map miss = 0
	case *ir.Call:
		d := decodedInstr{dst: -1, a: -1}
		if i.Dst != nil {
			d.dst = rid(i.Dst)
		}
		cs := callSite{args: make([]int32, len(i.Args))}
		for k, a := range i.Args {
			cs.args[k] = rid(a)
		}
		if i.Callee != "" {
			d.op = opCall
			cs.fn = p.mod.Func(i.Callee) // nil reproduces the walker's nil-callee panic
			if cs.fn != nil && !cs.fn.External {
				cs.callee = p.byFn[cs.fn]
			}
		} else {
			d.op = opCallIndirect
			d.a = rid(i.CalleePtr)
			// imm2 is this site's index into the per-VM inline-cache arrays:
			// a monomorphic site resolves its target through one tag compare
			// instead of the byAddr map (exec.go).
			d.imm2 = uint64(p.indirectSites)
			p.indirectSites++
		}
		d.imm = cf.addCall(cs)
		return d
	case *ir.Ret:
		d := decodedInstr{op: opRet, a: -1}
		if i.Val != nil {
			d.a = rid(i.Val)
		}
		return d
	case *ir.Br:
		return decodedInstr{op: opBr, dst: blockPC(i.Target)}
	case *ir.CondBr:
		return decodedInstr{op: opCondBr, a: rid(i.Cond), dst: blockPC(i.True), b: blockPC(i.False)}
	case *ir.Assert:
		return decodedInstr{op: opAssert, a: rid(i.X), b: rid(i.Y)}
	case *ir.FaultPoint:
		return decodedInstr{op: opFaultPoint}
	case *ir.RandInt:
		return decodedInstr{op: opRandInt, dst: rid(i.Dst), imm: uint64(i.Lo), imm2: uint64(i.Hi)}
	case *ir.HeapBufSize:
		return decodedInstr{op: opHeapBufSize, dst: rid(i.Dst), a: rid(i.Ptr)}
	case *ir.AtomicRMW:
		d := decodedInstr{op: opAtomicRMW, sub: uint8(i.Op), norm: normModeOf(i.Dst.Type),
			dst: rid(i.Dst), a: rid(i.Ptr), b: rid(i.Val), imm: uint64(i.Dst.Type.Size())}
		if i.RPtr != nil {
			d.imm2 = uint64(rid(i.RPtr)) + 1
		}
		return d
	case *ir.AtomicCAS:
		d := decodedInstr{op: opAtomicCAS, norm: normModeOf(i.Dst.Type),
			dst: rid(i.Dst), a: rid(i.Ptr), b: rid(i.Old), imm: uint64(i.Dst.Type.Size()),
			imm2: uint64(uint32(rid(i.New)))}
		if i.RPtr != nil {
			d.imm2 |= (uint64(rid(i.RPtr)) + 1) << 32
		}
		return d
	case *ir.Fence:
		return decodedInstr{op: opFence, dst: -1, a: -1, b: -1}
	case *ir.Output:
		d := decodedInstr{op: opOutput, sub: uint8(i.Mode), a: rid(i.Val)}
		if isF32(i.Val.Type) {
			d.flags |= flagX32
		}
		return d
	case *ir.Exit:
		d := decodedInstr{op: opExit, a: -1}
		if i.Val != nil {
			d.a = rid(i.Val)
		}
		return d
	}
	return decodedInstr{op: opErr, imm: cf.addErr(fmt.Errorf("unknown instruction %T in %s", in, f.Name))}
}

func decodeBinOp(cf *compiledFunc, i *ir.BinOp) decodedInstr {
	t := i.Dst.Type
	d := decodedInstr{dst: rid(i.Dst), a: rid(i.X), b: rid(i.Y), norm: normModeOf(t)}
	if i.Op.IsFloat() {
		d.op = opFBin
		d.sub = uint8(i.Op)
		if isF32(i.X.Type) {
			d.flags |= flagX32
		}
		if isF32(i.Y.Type) {
			d.flags |= flagY32
		}
		if isF32(t) {
			d.flags |= flagD32
		}
		if d.flags == 0 {
			// All-f64 operations (the common case) get dedicated opcodes
			// whose float conversions inline into the dispatch switch.
			switch i.Op {
			case ir.OpFAdd:
				d.op = opFAdd64
			case ir.OpFSub:
				d.op = opFSub64
			case ir.OpFMul:
				d.op = opFMul64
			case ir.OpFDiv:
				d.op = opFDiv64
			}
		}
		return d
	}
	switch i.Op {
	case ir.OpAdd:
		d.op = opAdd
	case ir.OpSub:
		d.op = opSub
	case ir.OpMul:
		d.op = opMul
	case ir.OpSDiv:
		d.op = opSDiv
	case ir.OpSRem:
		d.op = opSRem
	case ir.OpUDiv:
		d.op = opUDiv
		d.imm = uint64(t.Size() * 8) // operand mask width
	case ir.OpURem:
		d.op = opURem
		d.imm = uint64(t.Size() * 8)
	case ir.OpAnd:
		d.op = opAnd
	case ir.OpOr:
		d.op = opOr
	case ir.OpXor:
		d.op = opXor
	case ir.OpShl:
		d.op = opShl
	case ir.OpLShr:
		d.op = opLShr
		d.imm = uint64(t.Size() * 8)
	case ir.OpAShr:
		d.op = opAShr
	default:
		return decodedInstr{op: opErr, imm: cf.addErr(fmt.Errorf("unknown binop %v", i.Op))}
	}
	return d
}

func decodeConvert(i *ir.Convert) decodedInstr {
	from, to := i.Src.Type, i.Dst.Type
	d := decodedInstr{op: opConvert, sub: convIdentity, dst: rid(i.Dst), a: rid(i.Src)}
	switch {
	case from.Kind() == ir.KindInt && to.Kind() == ir.KindInt:
		d.sub = convIntToInt
		d.norm = normModeOf(to)
	case from.Kind() == ir.KindInt && to.Kind() == ir.KindFloat:
		d.sub = convIntToFloat
		if isF32(to) {
			d.flags |= flagD32
		}
	case from.Kind() == ir.KindFloat && to.Kind() == ir.KindInt:
		d.sub = convFloatToInt
		if isF32(from) {
			d.flags |= flagX32
		}
		d.norm = normModeOf(to)
	case from.Kind() == ir.KindFloat && to.Kind() == ir.KindFloat:
		d.sub = convFloatToFloat
		if isF32(from) {
			d.flags |= flagX32
		}
		if isF32(to) {
			d.flags |= flagD32
		}
	}
	return d
}
