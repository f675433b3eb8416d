package sched

import (
	"testing"

	"dpmr/internal/consist"
	"dpmr/internal/extlib"
	"dpmr/internal/interp"
	"dpmr/internal/mem"
	"dpmr/internal/workloads"
)

// BenchmarkScheduler measures the deterministic interleaving scheduler:
// one scheduled chash group per iteration, its shared space and trace
// recorder drawn from one mem.Pool as the harness draws them. serial1 is
// the degenerate single-VM group (every draw picks the yielding thread,
// so no handovers — the walker baseline); interleavedN adds N-VM
// cooperative scheduling with yields at every load/store/atomic; the
// traced variant layers the recorder on top, which checks every shared
// access as it runs, and the checked variant also reads each verdict
// with consist.Check: a whole concurrent-campaign trial. Traced rows
// hand each recorder back with PutTrace, as the harness does, so a warm
// run reuses its table and store log; their B/op over interleaved3's is
// the trace memory a warm trial allocates. The serial/interleaved
// trials-per-second ratio is the scheduling cost, interleaved/traced
// isolates the check's share, and traced/checked the verdict's.
// ns/switch divides the run's time by its scheduling draws. The rows above tree-walk on the walker oracle, handoverRun; the
// compiled rows run the same groups through Run, on a yielding program
// (interp.CompileYielding) and one goroutine, as the harness runs them,
// so compiled/plain is the engine's speedup under the scheduler.
func BenchmarkScheduler(b *testing.B) {
	w, err := workloads.ConcurrentByName("chash")
	if err != nil {
		b.Fatal(err)
	}
	benchMem := mem.Config{HeapBytes: 4 * 1024 * 1024, StackBytes: 256 * 1024, GlobalBytes: 64 * 1024}
	bench := func(b *testing.B, threads int, traced, checked, compiled bool) {
		m := w.Build(threads)
		m.Freeze()
		var prog *interp.Program
		run := handoverRun
		if compiled {
			if prog, err = interp.CompileYielding(m); err != nil {
				b.Fatal(err)
			}
			run = Run
		}
		pool := mem.NewPool(benchMem)
		var switches uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := run(m, Config{
				Threads:       threads,
				Seed:          1,
				TraceDisabled: !traced,
				VM:            interp.Config{Externs: extlib.Base(), Mem: benchMem, Prog: prog, SpacePool: pool},
			})
			c := res.Combined
			if c.Kind != interp.ExitNormal || c.Code != 0 {
				b.Fatalf("chash (%d threads): %v code %d (%s)", threads, c.Kind, c.Code, c.Reason)
			}
			if checked {
				if rep := consist.Check(res.Trace); !rep.Clean() {
					b.Fatalf("chash (%d threads): consistency violations: %v", threads, rep.Violations)
				}
			}
			pool.PutTrace(res.Trace)
			switches = res.Switches
		}
		b.ReportMetric(float64(switches), "switches/run")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(switches), "ns/switch")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "trials/sec")
		}
	}
	b.Run("serial1", func(b *testing.B) { bench(b, 1, false, false, false) })
	b.Run("interleaved3", func(b *testing.B) { bench(b, 3, false, false, false) })
	b.Run("interleaved3traced", func(b *testing.B) { bench(b, 3, true, false, false) })
	b.Run("interleaved3checked", func(b *testing.B) { bench(b, 3, true, true, false) })
	b.Run("serial1compiled", func(b *testing.B) { bench(b, 1, false, false, true) })
	b.Run("interleaved3checkedcompiled", func(b *testing.B) { bench(b, 3, true, true, true) })
}
