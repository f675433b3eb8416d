package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/interp"
	"dpmr/internal/mem"
	"dpmr/internal/workloads"
)

// differentialVariants is the full Figure 3.x/4.x variant surface: every
// diversity and every policy under both designs, deduplicated by label.
func differentialVariants() []Variant {
	var out []Variant
	seen := map[string]bool{}
	for _, set := range [][]Variant{
		DiversityVariants(dpmr.SDS), PolicyVariants(dpmr.SDS),
		DiversityVariants(dpmr.MDS), PolicyVariants(dpmr.MDS),
	} {
		for _, v := range set {
			if !seen[v.Label()] {
				seen[v.Label()] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// TestCompiledMatchesReference is the compiled interpreter's differential
// harness: every registered workload × variant × fault injection runs
// under both the compiled bytecode (with pooled address spaces, as
// campaigns run it) and the reference tree-walker (fresh spaces), and the
// complete Result — exit kind and code, detection reason, steps, the
// Cycles clock, output bytes, fault timing, and memory statistics — must
// be identical. Identical Results imply identical §3.6 classifications,
// golden reports, shard partials, and merge fingerprints.
func TestCompiledMatchesReference(t *testing.T) {
	variants := differentialVariants()
	memCfg := NewRunner().memConfig
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base := w.Build()
			base.Freeze()
			golden := interp.Run(base, interp.Config{Externs: extlib.Base(), Mem: memCfg})
			if golden.Kind != interp.ExitNormal {
				t.Fatalf("golden: %v (%s)", golden.Kind, golden.Reason)
			}
			limit := golden.Steps * 100
			injections := []*faultinject.Site{nil}
			for _, kind := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
				for _, s := range sampleSites(faultinject.Enumerate(base, kind), 2) {
					s := s
					injections = append(injections, &s)
				}
			}
			pool := mem.NewPool(memCfg)
			for _, v := range variants {
				for _, inj := range injections {
					m := base
					if inj != nil {
						fm, err := faultinject.Apply(base, *inj)
						if err != nil {
							t.Fatalf("%s %v: %v", v.Label(), inj, err)
						}
						m = fm
					}
					externs := extlib.Base()
					if v.DPMR {
						xm, err := dpmr.Transform(m, dpmr.Config{
							Design: v.Design, Diversity: v.Diversity, Policy: v.Policy, Seed: transformSeed,
						})
						if err != nil {
							t.Fatalf("%s %v: transform: %v", v.Label(), inj, err)
						}
						m = xm
						externs = extlib.Wrapped(v.Design)
					}
					m.Freeze()
					prog, err := interp.Compile(m)
					if err != nil {
						t.Fatalf("%s %v: compile: %v", v.Label(), inj, err)
					}
					cfg := interp.Config{Externs: externs, Mem: memCfg, Seed: 1, StepLimit: limit}
					ref := interp.Run(m, cfg)
					cfg.Prog = prog
					cfg.SpacePool = pool
					got := interp.Run(m, cfg)
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s / %s / inj=%v: compiled result diverges\nref: kind=%v code=%d reason=%q steps=%d cycles=%d faultSeen=%v faultCycle=%d mem=%+v\ngot: kind=%v code=%d reason=%q steps=%d cycles=%d faultSeen=%v faultCycle=%d mem=%+v\noutput equal: %v",
							w.Name, v.Label(), inj,
							ref.Kind, ref.Code, ref.Reason, ref.Steps, ref.Cycles, ref.FaultSeen, ref.FaultCycle, ref.Mem,
							got.Kind, got.Code, got.Reason, got.Steps, got.Cycles, got.FaultSeen, got.FaultCycle, got.Mem,
							string(ref.Output) == string(got.Output))
					}
				}
			}
		})
	}
}

// TestCampaignCompiledMatchesReference runs one real (quick) campaign
// both ways end to end and asserts the aggregated CampaignResult — the
// thing reports, shards, and merges are derived from — is identical.
func TestCampaignCompiledMatchesReference(t *testing.T) {
	spec := CampaignSpec(faultinject.ImmediateFree, workloads.All()[:2], []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
	spec.MaxSites = 3
	spec.Runs = 1
	run := func(compile bool) *CampaignResult {
		r := NewRunner()
		r.compile = compile
		cr, err := r.RunCampaign(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	if ref, got := run(false), run(true); !reflect.DeepEqual(ref, got) {
		t.Fatalf("campaign results diverge between reference and compiled engines")
	}
}

// mcfTimeoutSite is the injection behind every timed-out campaign trial:
// freeing mcf's arc node right after addArc allocates it leaves a free
// list link in the node, the arc list turns cyclic, and the trial spins
// in a short loop that writes nothing until its step budget runs out.
func mcfTimeoutSite(t testing.TB) (workloads.Workload, faultinject.Site) {
	t.Helper()
	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	want := "immediate-free@addArc/site0"
	for _, s := range faultinject.Enumerate(w.Build(), faultinject.ImmediateFree) {
		if s.String() == want {
			return w, s
		}
	}
	t.Fatalf("mcf has no site %s", want)
	return workloads.Workload{}, faultinject.Site{}
}

// TestTimeoutTrialCompiledMatchesReference: the timed-out trial the
// compiled loop fast-forwards (internal/interp's periodic fast-forward)
// classifies into the identical Outcome, Result included, as the
// tree-walker that runs every step, on the plain build and under an MDS
// pad-malloc variant. A small timeout factor keeps the walker side fast.
func TestTimeoutTrialCompiledMatchesReference(t *testing.T) {
	w, site := mcfTimeoutSite(t)
	for _, v := range []Variant{Stdapp(), NewVariant(dpmr.MDS, dpmr.PadMalloc{Pad: 32}, dpmr.AllLoads{})} {
		t.Run(v.Label(), func(t *testing.T) {
			run := func(compile bool) Outcome {
				r := NewRunner()
				r.compile = compile
				r.timeoutFactor = 2
				o, err := r.RunOnce(w, v, &site, 0)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			ref, got := run(false), run(true)
			if ref.Res.Kind != interp.ExitTimeout {
				t.Fatalf("reference trial ended %v (%s), want a timeout", ref.Res.Kind, ref.Res.Reason)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("compiled outcome diverges from reference\nref: %+v %+v\ngot: %+v %+v", ref.TrialOutcome, *ref.Res, got.TrialOutcome, *got.Res)
			}
		})
	}
}

// TestOverheadCompiledMatchesReference does the same for the overhead
// (cycle-ratio) experiments, whose numbers are the most sensitive to any
// cycle-clock divergence.
func TestOverheadCompiledMatchesReference(t *testing.T) {
	ws := workloads.All()[:2]
	variants := []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.StaticLoadChecking{Percent: 50}),
	}
	run := func(compile bool) *OverheadResult {
		r := NewRunner()
		r.compile = compile
		or, err := r.RunOverhead(context.Background(), OverheadSpec(ws, variants))
		if err != nil {
			t.Fatal(err)
		}
		return or
	}
	if ref, got := run(false), run(true); !reflect.DeepEqual(ref, got) {
		t.Fatalf("overhead results diverge between reference and compiled engines")
	}
}

// TestConcurrentCompiledMatchesReference: a concurrent campaign renders
// the report bytes pinned below at 2 and 4 threads with DPMR variants in
// the plan, unsharded and sharded 0/2 + 1/2 then merged, under both
// Options.Reference settings, which no longer switch the engine of
// concurrent groups. The digests were taken when those groups still
// tree-walked under Reference and both engines rendered these bytes;
// internal/sched holds the compiled groups to the walker itself.
func TestConcurrentCompiledMatchesReference(t *testing.T) {
	ctx := context.Background()
	want := map[int]string{
		2: "3d9e5ac2f2a94cc77f8a36589bcae999a47f48cbd7c26411da36593d1754dc0a",
		4: "953bf33a8c9693172054f0d0ec0ae643d464c0a33f2c81b1972449ac0c18108f",
	}
	for _, threads := range []int{2, 4} {
		spec := ConcurrentSpec([]string{"chash", "cpipe", "csteal"}, []Variant{
			Stdapp(),
			NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
			NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
		})
		spec.Threads = threads
		for _, reference := range []bool{false, true} {
			run := func(opts Options) Result {
				t.Helper()
				opts.Parallel, opts.Reference = 2, reference
				s, err := Start(ctx, spec, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Wait()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			r := NewRunner()
			reports := map[string]string{"unsharded": renderConc(run(Options{Runner: r}).concurrent())}
			// Either way the module is cached with its yielding program.
			w, err := workloads.ConcurrentByName("chash")
			if err != nil {
				t.Fatal(err)
			}
			if _, prog, err := r.concurrentModule(w, Stdapp(), threads); err != nil || prog == nil || !prog.Yielding() {
				t.Fatalf("threads=%d reference=%v: cached program %v (err %v), want a yielding one", threads, reference, prog != nil, err)
			}
			var parts []*PartialResult
			for idx := 0; idx < 2; idx++ {
				parts = append(parts, run(Options{Shard: ShardSpec{Index: idx, Count: 2}}).partialResult())
			}
			merged, err := NewRunner().MergeConcurrent(spec, parts)
			if err != nil {
				t.Fatal(err)
			}
			reports["merged"] = renderConc(merged)
			for cut, got := range reports {
				if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want[threads] {
					t.Errorf("threads=%d reference=%v %s report digest %s, want %s:\n%s",
						threads, reference, cut, sum, want[threads], got)
				}
			}
		}
	}
}
