// Superinstruction fusion: the data-table-driven pass that rewrites a
// function's flat decoded code, collapsing hot opcode sequences into one
// dispatch each. The table below generalizes the hand-chosen fusions the
// first-generation compiler wired directly into decode (cmp+condbr, the
// DPMR load/load/assert and store/store patterns, addr-compute+memory-op)
// and extends them with the top unfused pairs/triples of the workloads'
// -opstats histograms (profile.go; aggregate dynamic shares over all four
// workloads × {golden, SDS} in the rule comments).
//
// Rules match on plain opcodes only. A yielding program (CompileYielding)
// carries the yielding twins of loads and stores, so no rule containing
// a load or a store fuses there and every yield point keeps a dispatch of
// its own; the remaining rules apply unchanged.
//
// Every fusion is layout-preserving: the rule rewrites only the head slot,
// and the constituents keep their own — now unreachable — slots, so pc
// assignment, branch targets, and the walker's view of the module are all
// unchanged. The fused executor cases (exec.go) replay each constituent's
// step/cycle/budget accounting in sequence, which is what keeps compiled
// Results bit-identical to the tree-walker.
//
// A sequence only fuses when no branch target lands on its second or
// third slot: control entering mid-pair must execute the original unfused
// tail. With today's IR that bitmap guard cannot fire — branch targets are
// always block starts, and a block's last instruction is a terminator or
// is followed by the synthetic fell-off guard, so no fusible sequence
// spans a block boundary — but the pass's own contract is over flat code,
// and the guard keeps it correct for any control layout (fusion_test.go
// exercises it directly).
package interp

// fusionRule is one entry of the fusion table: the unfused opcode
// sequence to match, an optional operand predicate, and the rewrite of
// the head slot.
type fusionRule struct {
	name  string
	ops   []opcode // unfused opcode sequence, len 2 or 3
	match func(code []decodedInstr, pc int) bool
	fuse  func(code []decodedInstr, pc int) decodedInstr
}

// fitsU16 reports whether every id fits a packed 16-bit imm2 field.
func fitsU16(ids ...int32) bool {
	for _, id := range ids {
		if id < 0 || id > 0xFFFF {
			return false
		}
	}
	return true
}

// nibbleWidths reports whether both memory-access widths pack into one
// byte as two nibbles.
func nibbleWidths(w1, w2 uint64) bool { return w1 < 16 && w2 < 16 }

// fusionRules is the fusion table, in match-priority order: triples
// before the pairs they extend, DPMR instrumentation patterns before
// generic ones. The dynamic-share annotations are the aggregate -opstats
// measurements that selected each rule.
var fusionRules = []fusionRule{
	{
		// load ; load ; assert — 5.6% of executed instructions: the checked
		// load every DPMR read lowers to (Table 2.6). Strictly shaped: the
		// assert compares exactly the two loads' distinct destinations.
		name: "load+load+assert",
		ops:  []opcode{opLoad, opLoad, opAssert},
		match: func(c []decodedInstr, pc int) bool {
			l1, l2, as := &c[pc], &c[pc+1], &c[pc+2]
			return as.a == l1.dst && as.b == l2.dst && l1.dst != l2.dst &&
				nibbleWidths(l1.imm, l2.imm)
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, l2 := c[pc], &c[pc+1]
			d.op = opLoadLoadAssert
			d.b = l2.a
			d.sub = uint8(d.imm) | uint8(l2.imm)<<4
			d.flags = l2.norm // norm holds load1's mode, flags load2's
			d.imm = uint64(uint32(l2.dst))
			return d
		},
	},
	{
		// const ; add ; br — 4.9%: the loop-increment tail (i = i + K,
		// back edge). imm2 packs the add destination (u16) and the branch
		// target pc (u32 at bit 32).
		name: "const+add+br",
		ops:  []opcode{opConst, opAdd, opBr},
		match: func(c []decodedInstr, pc int) bool {
			return fitsU16(c[pc+1].dst)
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, ad, br := c[pc], &c[pc+1], &c[pc+2]
			d.op = opConstAddBr
			d.a, d.b, d.norm = ad.a, ad.b, ad.norm
			d.imm2 = uint64(uint16(ad.dst)) | uint64(uint32(br.dst))<<32
			return d
		},
	},
	{
		// cmp ; condbr — 5.8%: the loop-header pair, a compare feeding the
		// conditional branch. imm/imm2 become the true/false arm pcs.
		name: "cmp+br",
		ops:  []opcode{opCmp, opCondBr},
		match: func(c []decodedInstr, pc int) bool {
			return c[pc+1].a == c[pc].dst
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, cbr := c[pc], &c[pc+1]
			d.op = opCmpBr
			d.imm = uint64(uint32(cbr.dst))
			d.imm2 = uint64(uint32(cbr.b))
			return d
		},
	},
	{
		// store ; store — 1.0% golden but the defining MDS/SDS replicated
		// write; widths pack into sub as two nibbles.
		name: "store+store",
		ops:  []opcode{opStore, opStore},
		match: func(c []decodedInstr, pc int) bool {
			return nibbleWidths(c[pc].imm, c[pc+1].imm)
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, s2 := c[pc], &c[pc+1]
			d.op = opStore2
			d.sub = uint8(d.imm) | uint8(s2.imm)<<4
			d.imm = uint64(uint32(s2.a))
			d.imm2 = uint64(uint32(s2.b))
			return d
		},
	},
	{
		// fieldaddr ; load — 3.4%: struct-field reads.
		name: "fieldaddr+load",
		ops:  []opcode{opFieldAddr, opLoad},
		match: func(c []decodedInstr, pc int) bool {
			return c[pc+1].a == c[pc].dst && c[pc+1].imm < 256
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			return fuseAddrLoad(c, pc, opFieldLoad)
		},
	},
	{
		// indexaddr ; load — 4.8%: array-element reads.
		name: "indexaddr+load",
		ops:  []opcode{opIndexAddr, opLoad},
		match: func(c []decodedInstr, pc int) bool {
			return c[pc+1].a == c[pc].dst && c[pc+1].imm < 256
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			return fuseAddrLoad(c, pc, opIndexLoad)
		},
	},
	{
		// fieldaddr ; store — struct-field writes.
		name: "fieldaddr+store",
		ops:  []opcode{opFieldAddr, opStore},
		match: func(c []decodedInstr, pc int) bool {
			return c[pc+1].a == c[pc].dst && c[pc+1].imm < 256
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			return fuseAddrStore(c, pc, opFieldStore)
		},
	},
	{
		// indexaddr ; store — array-element writes.
		name: "indexaddr+store",
		ops:  []opcode{opIndexAddr, opStore},
		match: func(c []decodedInstr, pc int) bool {
			return c[pc+1].a == c[pc].dst && c[pc+1].imm < 256
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			return fuseAddrStore(c, pc, opIndexStore)
		},
	},
	{
		// indexaddr ; indexaddr — 5.3%: SDS computes the app and replica
		// element addresses back to back. The second compute's registers
		// and stride pack into imm2 as four u16 fields.
		name: "indexaddr+indexaddr",
		ops:  []opcode{opIndexAddr, opIndexAddr},
		match: func(c []decodedInstr, pc int) bool {
			x := &c[pc+1]
			return fitsU16(x.dst, x.a, x.b) && x.imm < 1<<16
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, x := c[pc], &c[pc+1]
			d.op = opIndexAddr2
			d.imm2 = uint64(uint16(x.dst)) | uint64(uint16(x.a))<<16 |
				uint64(uint16(x.b))<<32 | x.imm<<48
			return d
		},
	},
	{
		// const ; add — 5.0%: increment/offset arithmetic against an
		// immediate. The executor writes the constant first and then reads
		// the add's operands from the frame, so the dependent and
		// independent shapes both replay exactly.
		name: "const+add",
		ops:  []opcode{opConst, opAdd},
		match: func(c []decodedInstr, pc int) bool {
			return fitsU16(c[pc+1].dst)
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, ad := c[pc], &c[pc+1]
			d.op = opConstAdd
			d.a, d.b, d.norm = ad.a, ad.b, ad.norm
			d.imm2 = uint64(uint16(ad.dst))
			return d
		},
	},
	{
		// const ; load — 4.7%: a materialized address (or an unrelated
		// constant) ahead of a load. sub/norm take the load's width and
		// normalization; a takes its pointer register; imm2 its destination.
		name: "const+load",
		ops:  []opcode{opConst, opLoad},
		match: func(c []decodedInstr, pc int) bool {
			return fitsU16(c[pc+1].dst) && c[pc+1].imm < 256
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, ld := c[pc], &c[pc+1]
			d.op = opConstLoad
			d.a = ld.a
			d.sub = uint8(ld.imm)
			d.norm = ld.norm
			d.imm2 = uint64(uint16(ld.dst))
			return d
		},
	},
	{
		// fmul64 ; fadd64 — 3.5%: the multiply-accumulate inner loops of
		// art and equake. The add's registers pack into imm2 as u16 fields;
		// operands are read from the frame after the product lands, so a
		// dependent add sees it exactly as the unfused sequence would.
		name: "fmul64+fadd64",
		ops:  []opcode{opFMul64, opFAdd64},
		match: func(c []decodedInstr, pc int) bool {
			x := &c[pc+1]
			return fitsU16(x.dst, x.a, x.b)
		},
		fuse: func(c []decodedInstr, pc int) decodedInstr {
			d, x := c[pc], &c[pc+1]
			d.op = opFMulAdd64
			d.imm2 = uint64(uint16(x.dst)) | uint64(uint16(x.a))<<16 |
				uint64(uint16(x.b))<<32
			return d
		},
	},
}

// fuseAddrLoad rewrites an addr-compute head into its fused-load form.
func fuseAddrLoad(c []decodedInstr, pc int, op opcode) decodedInstr {
	d, ld := c[pc], &c[pc+1]
	d.op = op
	d.sub = uint8(ld.imm)
	d.norm = ld.norm
	d.imm2 = uint64(uint32(ld.dst))
	return d
}

// fuseAddrStore rewrites an addr-compute head into its fused-store form.
func fuseAddrStore(c []decodedInstr, pc int, op opcode) decodedInstr {
	d, st := c[pc], &c[pc+1]
	d.op = op
	d.sub = uint8(st.imm)
	d.imm2 = uint64(uint32(st.b))
	return d
}

// fuseCode applies the fusion table to one function's flat code in place.
// Branch targets are collected first: a sequence whose second or third
// slot is a target must stay unfused, because control entering there
// executes the original tail instructions.
func fuseCode(code []decodedInstr) {
	isTarget := make([]bool, len(code))
	mark := func(pc int32) {
		if 0 <= int(pc) && int(pc) < len(code) {
			isTarget[pc] = true
		}
	}
	for i := range code {
		switch code[i].op {
		case opBr:
			mark(code[i].dst)
		case opCondBr:
			mark(code[i].dst)
			mark(code[i].b)
		}
	}
scan:
	for pc := 0; pc < len(code); pc++ {
		for ri := range fusionRules {
			r := &fusionRules[ri]
			if code[pc].op != r.ops[0] || pc+len(r.ops) > len(code) {
				continue
			}
			ok := true
			for k := 1; k < len(r.ops); k++ {
				if code[pc+k].op != r.ops[k] || isTarget[pc+k] {
					ok = false
					break
				}
			}
			if !ok || (r.match != nil && !r.match(code, pc)) {
				continue
			}
			code[pc] = r.fuse(code, pc)
			pc += len(r.ops) - 1
			continue scan
		}
	}
}
