package main

// The traced run's layer replay: each Spec's trials driven through the
// layers' public entry points the same way the harness's Runner drives
// them (build → inject → transform → compile → execute, or build →
// transform → schedule → check), with a span around every layer call.
// The replay's outcomes must equal the harness's own for the same Spec,
// which is what makes its timings a faithful breakdown of the harness
// path.

import (
	"bytes"
	"fmt"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

// transformSeed is the fixed compile-time seed the harness transforms
// every DPMR variant with, so a variant always executes the same binary.
const transformSeed = 12345

// replayResult is what a replay produced: per-trial outcomes (campaign
// and concurrent Specs) or cycle counts (overhead Specs), and the number
// of distinct modules it built.
type replayResult struct {
	outcomes []harness.TrialOutcome
	cycles   []uint64
	modules  int
}

// trials is the replay's trial count.
func (r replayResult) trials() int { return len(r.outcomes) + len(r.cycles) }

func replay(spec harness.Spec, tr *tracer) (replayResult, error) {
	variants := make([]harness.Variant, len(spec.Variants))
	for i, vs := range spec.Variants {
		v, err := vs.Variant()
		if err != nil {
			return replayResult{}, err
		}
		variants[i] = v
	}
	switch spec.Kind {
	case harness.SpecCampaign:
		return replayCampaign(spec, variants, tr)
	case harness.SpecOverhead:
		return replayOverhead(spec, variants, tr)
	case harness.SpecConcurrent:
		return replayConcurrent(spec, variants, tr)
	}
	return replayResult{}, fmt.Errorf("replay: %s specs are not replayed", spec.Kind)
}

// baseModule builds, freezes and compiles a workload's untransformed
// module and runs its golden.
func baseModule(name string, cfg mem.Config, pool *mem.Pool, tr *tracer) (*ir.Module, *interp.Result, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	id := tr.begin("workloads.build_s")
	m := w.Build()
	m.Freeze()
	tr.end(id)
	prog := compile(m, tr)
	golden := execute(m, interp.Config{Externs: extlib.Base(), Mem: cfg, Prog: prog, SpacePool: pool}, tr)
	if golden.Kind != interp.ExitNormal || golden.Code != 0 {
		return nil, nil, fmt.Errorf("replay: golden %s failed: %v code %d (%s)", name, golden.Kind, golden.Code, golden.Reason)
	}
	return m, golden, nil
}

// variantModule derives the executable module of (variant, injection)
// from a frozen base, as the harness's stage-1 build does.
func variantModule(base *ir.Module, v harness.Variant, inj *faultinject.Site, tr *tracer) (*ir.Module, *interp.Program, error) {
	m := base
	if inj != nil {
		id := tr.begin("faultinject.apply_s")
		var err error
		m, err = faultinject.Apply(base, *inj)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	if v.DPMR {
		var err error
		m, err = transform(m, v, tr)
		if err != nil {
			return nil, nil, err
		}
	}
	m.Freeze()
	return m, compile(m, tr), nil
}

func transform(m *ir.Module, v harness.Variant, tr *tracer) (*ir.Module, error) {
	id := tr.begin("dpmr.transform_s")
	defer tr.end(id)
	return dpmr.Transform(m, dpmr.Config{Design: v.Design, Diversity: v.Diversity, Policy: v.Policy, Seed: transformSeed})
}

// compile lowers a frozen module; a failure means its trials run on the
// tree-walker, exactly as in the harness.
func compile(m *ir.Module, tr *tracer) *interp.Program {
	id := tr.begin("interp.compile_s")
	prog, err := interp.Compile(m)
	tr.end(id)
	if err != nil {
		tr.add("interp.compile_fallbacks", 1)
		return nil
	}
	return prog
}

func execute(m *ir.Module, cfg interp.Config, tr *tracer) *interp.Result {
	id := tr.begin("interp.exec_s")
	res := interp.Run(m, cfg)
	tr.end(id)
	tr.add("interp.steps", float64(res.Steps))
	if res.Kind == interp.ExitTimeout {
		tr.add("interp.timeout_steps", float64(res.Steps))
	}
	return res
}

func externs(v harness.Variant) map[string]interp.Extern {
	if v.DPMR {
		return extlib.Wrapped(v.Design)
	}
	return extlib.Base()
}

// classify is the §3.6 classification of one trial against its golden.
func classify(golden, res *interp.Result) harness.TrialOutcome {
	o := harness.TrialOutcome{SF: res.FaultSeen}
	switch res.Kind {
	case interp.ExitNormal:
		if res.Code == golden.Code && bytes.Equal(res.Output, golden.Output) {
			o.CO = true
		} else if res.Code != 0 && res.Code != golden.Code {
			o.NatDet = true
		}
	case interp.ExitTrap:
		o.NatDet = true
	case interp.ExitDetect:
		o.DpmrDet = true
	}
	if o.Detected() && res.FaultSeen && res.Cycles >= res.FaultCycle {
		o.T2DCycles = res.Cycles - res.FaultCycle
	}
	return o
}

// sampleSites is the harness's even-stride site cap.
func sampleSites(sites []faultinject.Site, max int) []faultinject.Site {
	if max <= 0 || len(sites) <= max {
		return sites
	}
	out := make([]faultinject.Site, 0, max)
	step := float64(len(sites)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, sites[int(float64(i)*step)])
	}
	return out
}

func injectKind(name string) (faultinject.Kind, error) {
	for _, k := range injectKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("replay: unknown injection %q", name)
}

// replayCampaign runs the campaign plan in canonical order: per
// workload, per sampled site, the stdapp runs then each DPMR variant's.
func replayCampaign(spec harness.Spec, variants []harness.Variant, tr *tracer) (replayResult, error) {
	kind, err := injectKind(spec.Inject)
	if err != nil {
		return replayResult{}, err
	}
	pool := mem.NewPool(spec.Mem)
	var out replayResult
	for _, name := range spec.Workloads {
		base, golden, err := baseModule(name, spec.Mem, pool, tr)
		if err != nil {
			return replayResult{}, err
		}
		out.modules++
		id := tr.begin("faultinject.apply_s")
		sites := sampleSites(faultinject.Enumerate(base, kind), spec.MaxSites)
		tr.end(id)
		tr.add("faultinject.sites", float64(len(sites)))
		budget := golden.Steps * spec.TimeoutFactor * 5
		for _, site := range sites {
			site := site
			runVariant := func(v harness.Variant) error {
				m, prog, err := variantModule(base, v, &site, tr)
				if err != nil {
					return err
				}
				out.modules++
				for rn := 0; rn < spec.Runs; rn++ {
					res := execute(m, interp.Config{Externs: externs(v), Mem: spec.Mem, Seed: int64(rn) + 1,
						StepLimit: budget, Prog: prog, SpacePool: pool}, tr)
					out.outcomes = append(out.outcomes, classify(golden, res))
				}
				return nil
			}
			if err := runVariant(harness.Stdapp()); err != nil {
				return replayResult{}, err
			}
			for _, v := range variants {
				if v.DPMR {
					if err := runVariant(v); err != nil {
						return replayResult{}, err
					}
				}
			}
		}
	}
	return out, nil
}

// replayOverhead measures the overhead plan in canonical order: per
// workload, its golden, then one run per DPMR variant.
func replayOverhead(spec harness.Spec, variants []harness.Variant, tr *tracer) (replayResult, error) {
	pool := mem.NewPool(spec.Mem)
	var out replayResult
	for _, name := range spec.Workloads {
		base, golden, err := baseModule(name, spec.Mem, pool, tr)
		if err != nil {
			return replayResult{}, err
		}
		out.modules++
		out.cycles = append(out.cycles, golden.Cycles)
		for _, v := range variants {
			if !v.DPMR {
				continue
			}
			m, prog, err := variantModule(base, v, nil, tr)
			if err != nil {
				return replayResult{}, err
			}
			out.modules++
			res := execute(m, interp.Config{Externs: externs(v), Mem: spec.Mem, Seed: 1, Prog: prog, SpacePool: pool}, tr)
			if res.Kind != interp.ExitNormal {
				return replayResult{}, fmt.Errorf("replay: overhead %s/%s: %v (%s)", name, v.Label(), res.Kind, res.Reason)
			}
			out.cycles = append(out.cycles, res.Cycles)
		}
	}
	return out, nil
}

// replayConcurrent runs the concurrent plan in canonical order: per
// workload, per variant, Runs scheduled groups, each trace checked.
// Concurrent modules are never compiled: the scheduler runs every VM on
// the tree-walker.
func replayConcurrent(spec harness.Spec, variants []harness.Variant, tr *tracer) (replayResult, error) {
	var out replayResult
	for _, name := range spec.Workloads {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			return replayResult{}, err
		}
		build := func(v harness.Variant) (*ir.Module, error) {
			id := tr.begin("workloads.build_s")
			m := w.Build(spec.Threads)
			tr.end(id)
			if v.DPMR {
				if m, err = transform(m, v, tr); err != nil {
					return nil, err
				}
			}
			m.Freeze()
			out.modules++
			return m, nil
		}
		std, err := build(harness.Stdapp())
		if err != nil {
			return replayResult{}, err
		}
		golden := schedule(std, sched.Config{Threads: spec.Threads, Seed: spec.SchedSeed, TraceDisabled: true,
			VM: interp.Config{Externs: extlib.Base(), Mem: spec.Mem}}, tr).Combined
		if golden.Kind != interp.ExitNormal || golden.Code != 0 {
			return replayResult{}, fmt.Errorf("replay: concurrent golden %s failed: %v (%s)", name, golden.Kind, golden.Reason)
		}
		for _, v := range variants {
			m := std
			if v.DPMR {
				if m, err = build(v); err != nil {
					return replayResult{}, err
				}
			}
			for rn := 0; rn < spec.Runs; rn++ {
				res := schedule(m, sched.Config{Threads: spec.Threads, Seed: spec.SchedSeed + int64(rn), VM: interp.Config{
					Externs: externs(v), Mem: spec.Mem, Seed: int64(rn) + 1, StepLimit: golden.Steps * spec.TimeoutFactor * 5,
				}}, tr)
				o := classify(golden, res.Combined)
				id := tr.begin("consist.check_s")
				rep := consist.Check(res.Trace)
				tr.end(id)
				tr.add("consist.events", float64(rep.Events))
				tr.add("consist.violations", float64(len(rep.Violations)))
				o.ConsistViol = !rep.Clean()
				out.outcomes = append(out.outcomes, o)
			}
		}
	}
	return out, nil
}

func schedule(m *ir.Module, cfg sched.Config, tr *tracer) *sched.Result {
	id := tr.begin("sched.run_s")
	res := sched.Run(m, cfg)
	tr.end(id)
	tr.add("sched.switches", float64(res.Switches))
	return res
}
