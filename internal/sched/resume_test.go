package sched

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// recursiveGroupModule builds a group whose threads recurse through rec,
// which stores its depth to a shared global and loads it back — two
// yields per frame, so threads park and resume deep inside the recursion
// — and recurses directly or through a function pointer. main recurses
// to depth 20 and returns; each worker recurses to stop, where stop < 0
// never stops.
func recursiveGroupModule(indirect bool, stop int64) *ir.Module {
	m := ir.NewModule("recgroup")
	b := ir.NewBuilder(m)
	m.AddGlobal("depth", ir.I64)
	rec := b.Function("rec", ir.I64, []string{"n", "stop"}, ir.I64, ir.I64)
	n, limit := rec.Params[0], rec.Params[1]
	g := b.GlobalAddr("depth")
	b.Store(g, n)
	seen := b.Load(g)
	done, deeper := b.Block("done"), b.Block("deeper")
	b.CondBr(b.Cmp(ir.CmpEQ, n, limit), done, deeper)
	b.SetBlock(done)
	b.Ret(seen)
	b.SetBlock(deeper)
	var r *ir.Reg
	if indirect {
		r = b.CallPtr(b.FuncAddr("rec"), b.Add(n, b.I64(1)), limit)
	} else {
		r = b.Call("rec", b.Add(n, b.I64(1)), limit)
	}
	b.Ret(b.Add(r, b.I64(1)))

	b.Function("worker", ir.Void, []string{"tid"}, ir.I64)
	b.Call("rec", b.I64(0), b.I64(stop))
	b.Ret(nil)

	b.Function("main", ir.I64, nil)
	b.Call("rec", b.I64(0), b.I64(20))
	b.Ret(b.I64(0))
	m.Freeze()
	return m
}

// TestRecursionUnderResume: threads that park and resume deep inside
// direct and indirect recursion — bounded, and unbounded into the depth
// limit, at the default limit and at a small MaxDepth — replay the walker
// oracle exactly.
func TestRecursionUnderResume(t *testing.T) {
	kinds := map[interp.ExitKind]int{}
	for _, indirect := range []bool{false, true} {
		for _, maxDepth := range []int{0, 40} {
			for _, stop := range []int64{30, -1} {
				m := recursiveGroupModule(indirect, stop)
				for seed := int64(1); seed <= 4; seed++ {
					cfg := Config{Threads: 2, Seed: seed, VM: interp.Config{MaxDepth: maxDepth, StepLimit: testStepLimit}}
					want := handoverRun(m, cfg)
					got := Run(m, cfg)
					if d := diffResults(got, want); d != "" {
						t.Fatalf("indirect=%v maxDepth=%d stop=%d seed=%d: %s", indirect, maxDepth, stop, seed, d)
					}
					kinds[got.Combined.Kind]++
					if stop < 0 && !strings.Contains(got.Combined.Reason, "call stack depth exceeded") {
						t.Fatalf("indirect=%v maxDepth=%d seed=%d: unbounded recursion ended %v (%s)",
							indirect, maxDepth, seed, got.Combined.Kind, got.Combined.Reason)
					}
				}
			}
		}
	}
	if kinds[interp.ExitNormal] == 0 || kinds[interp.ExitTrap] == 0 {
		t.Fatalf("want clean exits and depth traps, got %v", kinds)
	}
}

// callbackGroupModule builds a group whose worker calls the extern apply
// with a function that loads a shared global: a yield inside an extern
// callback. main stores to the global and returns.
func callbackGroupModule() *ir.Module {
	m := ir.NewModule("callback")
	m.AddGlobal("shared", ir.I64)
	m.AddExtern("apply", ir.FuncOf(ir.I64, ir.Ptr(ir.FuncOf(ir.I64, ir.I64)), ir.I64))
	b := ir.NewBuilder(m)
	b.Function("peek", ir.I64, []string{"x"}, ir.I64)
	b.Ret(b.Add(b.Load(b.GlobalAddr("shared")), b.F.Params[0]))

	b.Function("worker", ir.Void, []string{"tid"}, ir.I64)
	b.Call("apply", b.FuncAddr("peek"), b.F.Params[0])
	b.Ret(nil)

	b.Function("main", ir.I64, nil)
	b.Store(b.GlobalAddr("shared"), b.I64(5))
	b.Ret(b.I64(0))
	m.Freeze()
	return m
}

// applyExtern calls its function-pointer argument back on its second
// argument, as qsort calls its comparator.
func applyExtern(vm *interp.VM, args []uint64) (uint64, error) {
	fn, ok := vm.FuncByAddr(args[0])
	if !ok {
		return 0, &mem.Trap{Reason: "bad function pointer", Addr: args[0]}
	}
	return vm.Call(fn, args[1:])
}

// TestExternCallbackYieldRefused: a yield inside an extern callback
// cannot park the thread, so it ends the group with a named error — the
// same Result on every rerun of a schedule, never a hang, and no
// goroutine left behind.
func TestExternCallbackYieldRefused(t *testing.T) {
	m := callbackGroupModule()
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{Threads: 2, Seed: seed, VM: interp.Config{
			StepLimit: testStepLimit,
			Externs:   map[string]interp.Extern{"apply": applyExtern},
		}}
		res := Run(m, cfg)
		c := res.Combined
		if c.Kind != interp.ExitError || res.FailedThread != 1 || !strings.Contains(c.Reason, "yield inside extern callback") {
			t.Fatalf("seed %d: want thread 1's named refusal, got %v in thread %d (%s)", seed, c.Kind, res.FailedThread, c.Reason)
		}
		if d := diffResults(Run(m, cfg), res); d != "" {
			t.Fatalf("seed %d: rerun differs: %s", seed, d)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew from %d to %d", before, n)
	}
}
