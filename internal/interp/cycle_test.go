package interp

import (
	"math"
	"reflect"
	"testing"

	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// spinMain builds main as setup followed by a block that loops forever
// through body, a run that can only end by its step budget running out.
func spinMain(m *ir.Module, setup func(b *ir.Builder) any, body func(b *ir.Builder, env any)) {
	b := ir.NewBuilder(m)
	b.Function("main", ir.I64, nil)
	env := setup(b)
	loop := b.Block("loop")
	b.Br(loop)
	b.SetBlock(loop)
	body(b, env)
	b.Br(loop)
}

func noSetup(*ir.Builder) any { return nil }

// cycleCase is one shape of the exactness suite: a module, the externs it
// calls, and whether it runs without the cache model.
type cycleCase struct {
	name    string
	build   func() *ir.Module
	externs map[string]Extern
	noCache bool
}

// cycleMem is the suite's small address space, which keeps the
// comparison of whole spaces cheap.
var cycleMem = mem.Config{GlobalBytes: 4 << 10, HeapBytes: 64 << 10, StackBytes: 64 << 10}

// runCycleCase runs c under the walker and the compiled loop at budget
// and fails unless the two Results and the two whole address spaces —
// memory, allocator, statistics, cache tags and hit and miss counters —
// are identical. It returns the compiled run's Result and the number of
// steps it fast-forwarded.
func runCycleCase(t *testing.T, c cycleCase, budget uint64) (*Result, uint64) {
	t.Helper()
	m := c.build()
	m.Freeze()
	prog, err := Compile(m)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	run := func(prog *Program) (*Result, *VM) {
		mc := cycleMem
		mc.DisableCache = c.noCache
		vm, err := NewVM(m, Config{Externs: c.externs, Mem: mc, Seed: 1, StepLimit: budget, Prog: prog})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return vm.Run(), vm
	}
	ref, rvm := run(nil)
	got, gvm := run(prog)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s at budget %d: compiled result diverges from reference\nref: %+v\ngot: %+v", c.name, budget, ref, got)
	}
	if !reflect.DeepEqual(rvm.Space, gvm.Space) {
		t.Fatalf("%s at budget %d: compiled run leaves its address space in another state than the reference", c.name, budget)
	}
	return got, gvm.cyc.skipped
}

// cycleBudgets are the budgets every shape runs at. The runs of sixteen
// consecutive budgets end at every phase of a period of up to sixteen
// steps, so the last, partial period after a fast-forward also ends
// inside each of a fused op's constituent steps.
var cycleBudgets = func() []uint64 {
	bs := []uint64{100, 1_000, 65_536, 1_000_000}
	for k := uint64(0); k < 16; k++ {
		bs = append(bs, 200_000+k)
	}
	return bs
}()

// cycleSkipCases loop forever without writing anything, so each one is
// fast-forwarded.
var cycleSkipCases = []cycleCase{
	{
		name: "br loop",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(*ir.Builder, any) {})
			return m
		},
	},
	{
		name: "br loop, no cache",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(*ir.Builder, any) {})
			return m
		},
		noCache: true,
	},
	{
		// Two nodes linked into a ring, then chased with a null check:
		// fused cmp+condbr and field loads, a period of a few steps.
		name: "cyclic list chase",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			node := ir.Struct(ir.I64, ir.Ptr(ir.I64))
			spinMain(m, func(b *ir.Builder) any {
				a, c := b.Malloc(node), b.Malloc(node)
				b.Store(b.Field(a, 1), b.Cast(c, ir.I64))
				b.Store(b.Field(c, 1), b.Cast(a, ir.I64))
				p := b.Reg("p", ir.Ptr(node))
				b.MoveTo(p, a)
				return p
			}, func(b *ir.Builder, env any) {
				p := env.(*ir.Reg)
				b.If(b.Cmp(ir.CmpNE, b.PtrToInt(p), b.I64(0)), func() {
					b.MoveTo(p, b.Cast(b.Load(b.Field(p, 1)), node))
				}, nil)
			})
			return m
		},
	},
	{
		// Five lines of one 4-way cache set read round robin: every load
		// misses, and the set's LRU order comes back each period.
		name: "cache thrash",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, func(b *ir.Builder) any { return b.MallocN(ir.I64, b.I64(5*1024)) }, func(b *ir.Builder, env any) {
				for k := int64(0); k < 5; k++ {
					b.Load(b.Index(env.(*ir.Reg), b.I64(k*1024)))
				}
			})
			return m
		},
	},
	{
		// Each iteration calls a function whose alloca moves the stack
		// pointer and whose return moves it back.
		name: "call with alloca",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			b := ir.NewBuilder(m)
			b.Function("f", ir.I64, []string{"x"}, ir.I64)
			slot := b.AllocaN(ir.I64, b.I64(4))
			b.Ret(b.Add(b.F.Params[0], b.Load(b.Index(slot, b.I64(2)))))
			spinMain(m, noSetup, func(b *ir.Builder, _ any) {
				b.Call("f", b.I64(3))
			})
			return m
		},
	},
	{
		// The DPMR checked load: load, replica load, assert, fused into
		// one three-step op.
		name: "load load assert",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, func(b *ir.Builder) any {
				p, q := b.Malloc(ir.I64), b.Malloc(ir.I64)
				b.Store(p, b.I64(5))
				b.Store(q, b.I64(5))
				return [2]*ir.Reg{p, q}
			}, func(b *ir.Builder, env any) {
				pq := env.([2]*ir.Reg)
				b.Assert(b.Load(pq[0]), b.Load(pq[1]))
			})
			return m
		},
	},
}

// cycleNoSkipCases loop forever too, but each period writes, draws,
// calls out or outputs, or is longer than a look's window, so none is
// fast-forwarded; they must still run exactly.
var cycleNoSkipCases = []cycleCase{
	{
		name: "store of a changing value",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, func(b *ir.Builder) any {
				p := b.Malloc(ir.I64)
				i := b.Reg("i", ir.I64)
				b.MoveTo(i, b.I64(0))
				return [2]*ir.Reg{p, i}
			}, func(b *ir.Builder, env any) {
				pi := env.([2]*ir.Reg)
				b.BinTo(pi[1], ir.OpAdd, pi[1], b.I64(1))
				b.Store(pi[0], pi[1])
			})
			return m
		},
	},
	{
		name: "store of a constant",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, func(b *ir.Builder) any { return b.Malloc(ir.I64) }, func(b *ir.Builder, env any) {
				b.Store(env.(*ir.Reg), b.I64(7))
			})
			return m
		},
	},
	{
		// A one-value range: the register never changes, only the PRNG.
		name: "randint",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(b *ir.Builder, _ any) { b.RandInt(4, 4) })
			return m
		},
	},
	{
		name: "extern call",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			m.AddExtern("nop", ir.FuncOf(ir.I64))
			spinMain(m, noSetup, func(b *ir.Builder, _ any) { b.Call("nop") })
			return m
		},
		externs: map[string]Extern{"nop": func(*VM, []uint64) (uint64, error) { return 0, nil }},
	},
	{
		name: "output",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(b *ir.Builder, _ any) { b.OutInt(b.I64(1)) })
			return m
		},
	},
	{
		// The allocator hands the same buffer back every time, so only
		// the heap counters and the rewritten header tell periods apart.
		name: "malloc and free",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(b *ir.Builder, _ any) { b.Free(b.Malloc(ir.I64)) })
			return m
		},
	},
	{
		// An inner count to 5,000 of two dispatches per iteration: the
		// outer period is far longer than a look's window.
		name: "period longer than the window",
		build: func() *ir.Module {
			m := ir.NewModule("t")
			spinMain(m, noSetup, func(b *ir.Builder, _ any) {
				b.ForRange("i", b.I64(0), b.I64(5_000), func(*ir.Reg) {})
			})
			return m
		},
	},
}

// TestCycleFastForwardExact: the loops that never write are
// fast-forwarded through at least 90% of every budget of 5,000 steps or
// more, the others not at
// all, and every run's Result and cache counters equal the walker's,
// which executes every step. Each run times out on its budget's last
// step.
func TestCycleFastForwardExact(t *testing.T) {
	for _, c := range cycleSkipCases {
		t.Run(c.name, func(t *testing.T) {
			for _, budget := range cycleBudgets {
				res, skipped := runCycleCase(t, c, budget)
				if res.Kind != ExitTimeout || res.Steps != budget+1 {
					t.Fatalf("budget %d: %v after %d steps, want a timeout on step %d", budget, res.Kind, res.Steps, budget+1)
				}
				// Below a few thousand steps, the first sixteenth of the
				// budget and the periods left to run weigh too much.
				if budget >= 5_000 && skipped < budget/10*9 {
					t.Errorf("budget %d: fast-forwarded %d steps, want at least 90%%", budget, skipped)
				}
			}
		})
	}
	for _, c := range cycleNoSkipCases {
		t.Run(c.name, func(t *testing.T) {
			for _, budget := range cycleBudgets {
				res, skipped := runCycleCase(t, c, budget)
				if res.Kind != ExitTimeout {
					t.Fatalf("budget %d: %v (%s), want a timeout", budget, res.Kind, res.Reason)
				}
				if skipped != 0 {
					t.Errorf("budget %d: fast-forwarded %d steps of a loop that is not write-free", budget, skipped)
				}
			}
		})
	}
}

// TestCycleLooksOnlyWhenAllowed: only a VM bound to a program that does
// not yield, under a finite budget, ever looks for a period.
func TestCycleLooksOnlyWhenAllowed(t *testing.T) {
	m := ir.NewModule("t")
	spinMain(m, noSetup, func(*ir.Builder, any) {})
	m.Freeze()
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	yprog, err := CompileYielding(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		looks bool
	}{
		{"compiled, budgeted", Config{Prog: prog, StepLimit: 1 << 20}, true},
		{"compiled, unbudgeted", Config{Prog: prog}, false},
		{"walker", Config{StepLimit: 1 << 20}, false},
		{"yielding", Config{Prog: yprog, StepLimit: 1 << 20, Yield: func() bool { return false }}, false},
	} {
		vm, err := NewVM(m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if looks := vm.cyc.next != math.MaxUint64; looks != c.looks {
			t.Errorf("%s: looks %v, want %v", c.name, looks, c.looks)
		}
	}
}
