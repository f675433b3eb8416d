package interp

import (
	"strings"
	"testing"

	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// recursionModule builds main() calling rec(0), where rec(n) keeps an
// alloca'd copy of n, stores and reloads it, and recurses on n+1 —
// directly, or through a function pointer when indirect — until n reaches
// stop, where it returns n (stop < 0 never stops). With trapAt >= 0 the
// frame at that depth stores through a null pointer instead.
func recursionModule(indirect bool, stop, trapAt int64) *ir.Module {
	m := ir.NewModule("rec")
	b := ir.NewBuilder(m)
	rec := b.Function("rec", ir.I64, []string{"n"}, ir.I64)
	n := rec.Params[0]
	slot := b.Alloca(ir.I64)
	b.Store(slot, n)
	if trapAt >= 0 {
		trap, cont := b.Block("trap"), b.Block("cont")
		b.CondBr(b.Cmp(ir.CmpEQ, n, b.I64(trapAt)), trap, cont)
		b.SetBlock(trap)
		b.Store(b.IntToPtr(b.I64(0), ir.Ptr(ir.I64)), n)
		b.Br(cont)
		b.SetBlock(cont)
	}
	done, deeper := b.Block("done"), b.Block("deeper")
	b.CondBr(b.Cmp(ir.CmpEQ, b.Load(slot), b.I64(stop)), done, deeper)
	b.SetBlock(done)
	b.Ret(n)
	b.SetBlock(deeper)
	var r *ir.Reg
	if indirect {
		r = b.CallPtr(b.FuncAddr("rec"), b.Add(n, b.I64(1)))
	} else {
		r = b.Call("rec", b.Add(n, b.I64(1)))
	}
	b.Ret(b.Add(r, b.Load(slot)))
	b.Function("main", ir.I64, nil)
	b.Ret(b.Call("rec", b.I64(0)))
	if err := ir.Verify(m); err != nil {
		panic(err)
	}
	return m
}

// TestDepthLimitMatchesWalker: unbounded direct and indirect recursion
// hits "call stack depth exceeded" at the same step, cycle and memory
// state on both engines, at the default limit and at a small MaxDepth;
// recursion that stops one frame short of the limit returns normally on
// both.
func TestDepthLimitMatchesWalker(t *testing.T) {
	for _, indirect := range []bool{false, true} {
		for _, maxDepth := range []int{0, 40} {
			limit := maxDepth
			if limit == 0 {
				limit = 4096
			}
			res := runBoth(t, recursionModule(indirect, -1, -1), Config{MaxDepth: maxDepth})
			if res.Kind != ExitTrap || res.Reason != "call stack depth exceeded" {
				t.Fatalf("indirect=%v maxDepth=%d: got %v (%s), want the depth trap", indirect, maxDepth, res.Kind, res.Reason)
			}
			// main is one frame, so rec(limit-2) is the deepest that fits.
			res = runBoth(t, recursionModule(indirect, int64(limit-2), -1), Config{MaxDepth: maxDepth})
			if res.Kind != ExitNormal {
				t.Fatalf("indirect=%v maxDepth=%d: bounded recursion got %v (%s)", indirect, maxDepth, res.Kind, res.Reason)
			}
		}
	}
}

// TestDeepTrapUnwinds: a trap raised 1,000 frames deep unwinds every
// frame — registers, explicit stack, depth and the stack pointer — so the
// VM is back at its entry state, on both engines.
func TestDeepTrapUnwinds(t *testing.T) {
	m := recursionModule(false, -1, 1000)
	m.Freeze()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Program{nil, prog} {
		vm, err := NewVM(m, Config{Prog: p, Mem: mem.Config{StackBytes: 64 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		sp := vm.Space.StackPointer()
		res := vm.RunEntry(m.Func("main"), nil)
		if res.Kind != ExitTrap {
			t.Fatalf("compiled %v: got %v (%s), want a trap", p != nil, res.Kind, res.Reason)
		}
		if vm.depth != 0 || len(vm.frames) != 0 || len(vm.regStack) != 0 || vm.Space.StackPointer() != sp {
			t.Fatalf("compiled %v: after the trap depth %d, %d frames, %d registers, sp %#x (entry sp %#x)",
				p != nil, vm.depth, len(vm.frames), len(vm.regStack), vm.Space.StackPointer(), sp)
		}
		if vm.Compiled() && cap(vm.frames) < 1000 {
			t.Fatalf("explicit stack reached only %d frames", cap(vm.frames))
		}
	}
}

// TestStartRefusals: Start needs a VM bound to a compiled program and a
// function that program compiles, and Resume needs a started VM.
func TestStartRefusals(t *testing.T) {
	m := buildMain(func(b *ir.Builder) { b.Ret(b.I64(3)) })
	m.AddExtern("ext", ir.FuncOf(ir.I64))
	m.Freeze()
	prog, err := CompileYielding(m)
	if err != nil {
		t.Fatal(err)
	}
	walker, err := NewVM(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := walker.StartMain(); err == nil || !strings.Contains(err.Error(), "compiled program") {
		t.Fatalf("Start on a tree-walking VM: %v", err)
	}
	vm, err := NewVM(m, Config{Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(m.Func("ext"), nil); err == nil {
		t.Fatal("Start of an extern succeeded")
	}
	if res := vm.Resume(); res.Kind != ExitError {
		t.Fatalf("Resume before Start: %v", res.Kind)
	}
	if err := vm.StartMain(); err != nil {
		t.Fatal(err)
	}
	if res := vm.Resume(); res.Kind != ExitNormal || res.Code != 3 {
		t.Fatalf("Resume: %v code %d (%s)", res.Kind, res.Code, res.Reason)
	}
	if res := vm.Resume(); res.Kind != ExitError {
		t.Fatalf("Resume after the exit: %v", res.Kind)
	}
}
