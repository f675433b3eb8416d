package interp_test

import (
	"reflect"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/workloads"
)

// compileFuzzSeeds are FuzzCompile's handwritten seed modules, aimed at
// the fusion table's edges. TestCompileFuzzSeedsValid pins them as
// parse-and-verify clean so a grammar drift cannot silently turn them
// into skipped inputs.
var compileFuzzSeeds = append([]string{
	// A loop whose header is cmp+condbr and whose latch is const+add+br —
	// the two control-flow fusion rules — with the back edge landing on a
	// fused head (never a mid-pair slot).
	"module m\nfunc @main() i64 {\n.entry:\n  %i = const i64 0\n  br .head\n.head:\n  %lim = const i64 10\n  %c = cmp slt %i, %lim\n  condbr %c, .body, .done\n.body:\n  %one = const i64 1\n  %i = add %i, %one\n  br .head\n.done:\n  ret %i\n}\n",
	// Back-to-back loads of one cell feeding an assert (the DPMR check
	// pattern) and a double store (the replicated-write pattern), plus
	// the indexaddr pair.
	"module m\nfunc @main() i64 {\n.entry:\n  %n = const i64 4\n  %zero = const i64 0\n  %p = malloc [4 x i64], count %n ; site 1\n  %q = indexaddr %p, %zero\n  %v = const i64 7\n  store %v, %q\n  store %v, %q\n  %a = load i64, %q\n  %b = load i64, %q\n  assert %a == %b\n  free %p\n  ret %a\n}\n",
	// Trap path: division by zero right after a fusible const+add.
	"module m\nfunc @main() i64 {\n.entry:\n  %z = const i64 0\n  %x = const i64 1\n  %y = add %x, %z\n  %d = sdiv %y, %z\n  ret %d\n}\n",
	// Indirect call through a function address (inline-cache path).
	"module m\nfunc @f() i64 {\n.entry:\n  %r = const i64 3\n  ret %r\n}\nfunc @main() i64 {\n.entry:\n  %p = funcaddr @f\n  %v = call %p()\n  ret %v\n}\n",
}, periodicFuzzSeeds...)

// periodicFuzzSeeds are loops that never end and never write once they
// spin, so the compiled loop fast-forwards them (cycle.go) once the step
// count passes a sixteenth of the budget: FuzzCompile mutates them from
// runs that reach the fast-forward.
var periodicFuzzSeeds = []string{
	// A two-node ring chased under a cmp+condbr null check: the pointer
	// chase of a list a dangling free made cyclic.
	"module m\nfunc @main() i64 {\n.entry:\n  %a = malloc { i64; i64* } ; site 1\n  %b = malloc { i64; i64* } ; site 2\n  %fa = fieldaddr %a, 1\n  %pb = bitcast %b to i64*\n  store %pb, %fa\n  %fb = fieldaddr %b, 1\n  %pa = bitcast %a to i64*\n  store %pa, %fb\n  %p = move %a\n  br .loop\n.loop:\n  %n = ptrtoint %p\n  %z = const i64 0\n  %c = cmp ne %n, %z\n  condbr %c, .next, .done\n.next:\n  %f = fieldaddr %p, 1\n  %q = load i64*, %f\n  %p = bitcast %q to { i64; i64* }*\n  br .loop\n.done:\n  ret %z\n}\n",
	// A DPMR checked load spinning beside a call whose alloca moves the
	// stack pointer and whose return moves it back.
	"module m\nfunc @f(%x: i64) i64 {\n.entry:\n  %n = const i64 4\n  %s = alloca i64, count %n ; site 3\n  %k = const i64 2\n  %e = indexaddr %s, %k\n  %v = load i64, %e\n  %r = add %x, %v\n  ret %r\n}\nfunc @main() i64 {\n.entry:\n  %p = malloc i64 ; site 1\n  %q = malloc i64 ; site 2\n  %v = const i64 5\n  store %v, %p\n  store %v, %q\n  br .loop\n.loop:\n  %a = load i64, %p\n  %b = load i64, %q\n  assert %a == %b\n  %t = call @f(%a)\n  br .loop\n}\n",
	// A count to 3 that starts over: cmp+condbr at the head and
	// const+add+br at the latch, with the register state repeating once
	// per count.
	"module m\nfunc @main() i64 {\n.entry:\n  br .outer\n.outer:\n  %i = const i64 0\n  br .head\n.head:\n  %lim = const i64 3\n  %c = cmp slt %i, %lim\n  condbr %c, .body, .outer\n.body:\n  %one = const i64 1\n  %i = add %i, %one\n  br .head\n}\n",
}

// fuzzStepLimit bounds every differential run.
const fuzzStepLimit = 50_000

// compileDifferential runs text under the tree-walker and the compiled
// engine and reports a fatal error on any Result divergence, or on a
// frame packing that differs from the dense liveness oracle. It then
// does the same for the yielding program (CompileYielding) against the
// walker, both under a Yield hook that records the VM's clocks at every
// yield, the compiled VM parking at each one: the yields too must fall at
// the same steps and cycles. It returns false when the module never
// reached execution (parse/verify/compile rejection — all legitimate).
func compileDifferential(t *testing.T, text string) bool {
	t.Helper()
	m, err := ir.Parse(text)
	if err != nil {
		return false
	}
	if err := ir.Verify(m); err != nil {
		return false
	}
	// Bound runaway loops; the limit applies identically to both engines,
	// so a limit-exit Result still has to match exactly.
	cfg := interp.Config{StepLimit: fuzzStepLimit}
	ref := interp.Run(m, cfg)
	m.Freeze()
	// The block liveness must pack every function exactly as the dense
	// per-pc oracle does, including in modules validation later rejects.
	for _, yielding := range []bool{false, true} {
		if diff, _ := interp.DensePackingDiff(m, yielding); diff != "" {
			t.Fatalf("packFrame diverges from the dense liveness oracle (yielding %v): %s\n--- module ---\n%s", yielding, diff, text)
		}
	}
	prog, err := interp.Compile(m)
	if err != nil {
		// Compile may reject a module (production falls back to the
		// walker); it may not crash or mis-execute an accepted one.
		return false
	}
	ccfg := cfg
	ccfg.Prog = prog
	got := interp.Run(m, ccfg)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("compiled result diverges from reference:\nref: %+v\ngot: %+v\n--- module ---\n%s", ref, got, text)
	}
	yprog, err := interp.CompileYielding(m)
	if err != nil {
		t.Fatalf("CompileYielding rejects a module Compile accepts: %v\n--- module ---\n%s", err, text)
	}
	ref, refYields := runRecordingYields(t, m, cfg, nil)
	got, gotYields := runRecordingYields(t, m, cfg, yprog)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("yielding compiled result diverges from reference:\nref: %+v\ngot: %+v\n--- module ---\n%s", ref, got, text)
	}
	if !reflect.DeepEqual(refYields, gotYields) {
		t.Fatalf("yielding compiled run yields at other clocks:\nref: %v\ngot: %v\n--- module ---\n%s", refYields, gotYields, text)
	}
	return true
}

// runRecordingYields runs m with prog bound (nil tree-walks) under a
// Yield hook that logs the VM's (steps, cycles) at every yield. The
// walker's hook returns at once. A compiled VM runs under StartMain and
// Resume instead, and its hook parks it at every yield, so the run is a
// chain of parks and resumes; each park must un-count the yielding
// instruction's step, which the resume counts again.
func runRecordingYields(t *testing.T, m *ir.Module, cfg interp.Config, prog *interp.Program) (*interp.Result, [][2]uint64) {
	t.Helper()
	var vm *interp.VM
	var yields [][2]uint64
	cfg.Prog = prog
	cfg.Yield = func() bool {
		yields = append(yields, [2]uint64{vm.Steps(), vm.Cycles()})
		return prog != nil
	}
	vm, err := interp.NewVM(m, cfg)
	if err != nil {
		return &interp.Result{Kind: interp.ExitError, Reason: err.Error()}, nil
	}
	if vm.Compiled() != (prog != nil) {
		t.Fatalf("VM under Yield: compiled %v with prog %v", vm.Compiled(), prog != nil)
	}
	if prog == nil {
		return vm.Run(), yields
	}
	if err := vm.StartMain(); err != nil {
		return &interp.Result{Kind: interp.ExitError, Reason: err.Error()}, nil
	}
	for parks := 0; ; parks++ {
		res := vm.Resume()
		if res != nil {
			if parks != len(yields) {
				t.Fatalf("%d parks for %d yields", parks, len(yields))
			}
			return res, yields
		}
		if last := yields[len(yields)-1]; vm.Steps() != last[0]-1 || vm.Cycles() != last[1]-1 {
			t.Fatalf("parked at (%d, %d) after yielding at %v: the step must be un-counted", vm.Steps(), vm.Cycles(), last)
		}
	}
}

// TestCompileFuzzSeedsValid: every handwritten fuzz seed parses,
// verifies, compiles, and executes identically on both engines — the
// deterministic half of FuzzCompile's contract.
func TestCompileFuzzSeedsValid(t *testing.T) {
	for i, text := range compileFuzzSeeds {
		if !compileDifferential(t, text) {
			t.Errorf("seed %d no longer reaches execution:\n%s", i, text)
		}
	}
}

// TestPeriodicFuzzSeedsFastForward: under FuzzCompile's budget, every
// periodic seed is fast-forwarded, and TestCompileFuzzSeedsValid holds
// each one to the walker.
func TestPeriodicFuzzSeedsFastForward(t *testing.T) {
	for i, text := range periodicFuzzSeeds {
		m, err := ir.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		m.Freeze()
		prog, err := interp.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := interp.NewVM(m, interp.Config{StepLimit: fuzzStepLimit, Prog: prog})
		if err != nil {
			t.Fatal(err)
		}
		if res := vm.Run(); res.Kind != interp.ExitTimeout {
			t.Errorf("periodic seed %d: %v (%s), want a timeout", i, res.Kind, res.Reason)
		}
		if vm.SkippedSteps() == 0 {
			t.Errorf("periodic seed %d was not fast-forwarded:\n%s", i, text)
		}
	}
}

// FuzzCompile is the compiled engine's native fuzz target: any module
// the verifier accepts must produce a compiled Result bit-identical to
// the tree-walker's — cycles, traps, detections, RNG sequence, output,
// everything reflect.DeepEqual can see. The compile pipeline (decode →
// fuse → packFrame → validate) may also reject a module outright
// (falling back to the walker in production); what it must never do is
// accept one and execute it differently, panic, or fault — validateFunc
// exists so the executor's unchecked accesses stay inside proven bounds
// even on adversarial control and operand layouts.
//
// Seeds are the workloads and a DPMR transform (the richest real
// modules, together exercising every fusion rule), the concurrent
// workloads' main threads plain and DPMR-transformed (their atomics and
// fences exercise every yielding opcode), plus the handwritten edge-case
// modules above. Every yielding run parks and resumes at each yield.
func FuzzCompile(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Build().String())
	}
	for _, w := range workloads.Concurrent() {
		f.Add(w.Build(1).String())
		if xm, err := dpmr.Transform(w.Build(1), dpmr.Config{Design: dpmr.MDS, Seed: 1}); err == nil {
			f.Add(xm.String())
		}
	}
	if xm, err := dpmr.Transform(workloads.All()[0].Build(), dpmr.Config{
		Design: dpmr.SDS, Diversity: dpmr.RearrangeHeap{}, Policy: dpmr.AllLoads{}, Seed: 1,
	}); err == nil {
		f.Add(xm.String())
	}
	for _, s := range compileFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		compileDifferential(t, text)
	})
}
