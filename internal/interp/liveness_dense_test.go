package interp

import (
	"fmt"
	"slices"

	"dpmr/internal/ir"
)

// packFrameDense is the per-pc reference for packFrame: it solves
// liveness with one set per pc instead of one per basic block, then
// packs through the same packSlots. blockRanges must produce exactly its
// intervals, so the two passes must pack every function identically;
// DensePackingDiff checks that on whole modules.
func packFrameDense(cf *compiledFunc) {
	if len(cf.code) == 0 || cf.numRegs == 0 {
		return
	}
	if lr, entryLive, ok := denseRanges(cf); ok {
		packSlots(cf, lr, entryLive)
	}
}

// denseRanges touches every register at every reachable pc where it is
// referenced or live-in.
func denseRanges(cf *compiledFunc) (liveRanges, bitset, bool) {
	n := len(cf.code)
	regs := int32(cf.numRegs)

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
	// instruction.
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
				return liveRanges{}, nil, false
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

	lr := newLiveRanges(regs)
	for pc := 0; pc < n; pc++ {
		if !reachable[pc] {
			continue
		}
		lr.touchAll(liveIn[pc], int32(pc))
		refBuf = appendRefs(refBuf[:0], &cf.code[pc], cf.calls)
		for _, ref := range refBuf {
			lr.touch(ref.reg, int32(pc))
		}
	}
	return lr, liveIn[0], true
}

// packState is the part of a compiledFunc that packing rewrites.
type packState struct {
	numRegs int
	params  []int32
	code    []decodedInstr
	args    [][]int32
}

func packStateOf(cf *compiledFunc) packState {
	s := packState{numRegs: cf.numRegs, params: slices.Clone(cf.params), code: slices.Clone(cf.code)}
	for _, c := range cf.calls {
		s.args = append(s.args, slices.Clone(c.args))
	}
	return s
}

// withPackState returns a copy of cf carrying s in place of cf's own
// packing state; the side tables packing only reads stay shared.
func withPackState(cf *compiledFunc, s packState) *compiledFunc {
	c := *cf
	c.numRegs, c.params, c.code = s.numRegs, s.params, s.code
	c.calls = slices.Clone(cf.calls)
	for i := range c.calls {
		c.calls[i].args = s.args[i]
	}
	return &c
}

// DensePackingDiff compiles m, packing every function with packFrame and
// a copy of its unpacked state with packFrameDense, and describes the
// first function whose packed code, frame width, parameters or call
// arguments differ ("" when every function matches). err is Compile's
// own rejection of m, if any.
func DensePackingDiff(m *ir.Module, yielding bool) (diff string, err error) {
	_, err = compile(m, yielding, func(cf *compiledFunc) {
		ref := withPackState(cf, packStateOf(cf))
		packFrameDense(ref)
		packFrame(cf)
		if diff != "" {
			return
		}
		got, want := packStateOf(cf), packStateOf(ref)
		switch {
		case got.numRegs != want.numRegs:
			diff = fmt.Sprintf("%s: %d packed registers, dense %d", cf.name, got.numRegs, want.numRegs)
		case !slices.Equal(got.params, want.params):
			diff = fmt.Sprintf("%s: params %v, dense %v", cf.name, got.params, want.params)
		case !slices.Equal(got.code, want.code):
			pc := 0
			for got.code[pc] == want.code[pc] {
				pc++
			}
			diff = fmt.Sprintf("%s: pc %d is %+v, dense %+v", cf.name, pc, got.code[pc], want.code[pc])
		case !slices.EqualFunc(got.args, want.args, slices.Equal[[]int32]):
			diff = fmt.Sprintf("%s: call args %v, dense %v", cf.name, got.args, want.args)
		}
	})
	return diff, err
}
