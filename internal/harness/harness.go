// Package harness implements the paper's experimental framework
// (§3.3–§3.6): variant builds (Figure 3.5), the experiment tuple
// (W, C, D, I, RN), and the evaluation metrics — overhead, coverage,
// conditional coverage, and detection latency — together with the
// campaign drivers and renderers that regenerate every table and figure
// of the evaluation chapters.
//
// The package separates *what* an experiment is from *how* it executes:
//
//   - Spec (spec.go) is the declarative, JSON-serializable experiment
//     description — the single input to plan construction and the sole
//     source of every plan fingerprint.
//   - Options (report.go) is the execution policy, the *how*: worker
//     count, reference interpreter, shard, event sink and warm Runner.
//     Every entry point that runs trials takes one, and Options.Apply is
//     the one place it reaches a Runner.
//   - Session (session.go) is the context-first execution handle:
//     Start(ctx, spec, report, opts) streams typed events (TrialDone,
//     Progress, ShardMerged, CacheStats) while the experiment runs.
//   - Runner (below) is the mid-level two-stage campaign engine they
//     are built on.
//   - The kind interface (kind.go) is implemented once per plan kind —
//     campaign (below), overhead, and concurrent — in four steps: plan
//     the Spec into a canonical trial grid and its fingerprint, exec a
//     contiguous trial range into a partial payload, aggregate partials
//     into a result, and render the result. Every execution path is
//     written once on top of it: whole and partial runs, merges, resume,
//     progressive snapshots, and the journaled span loop (resume.go).
package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/opt"
	"dpmr/internal/workloads"
)

// CyclesPerMS converts the deterministic cycle clock to "milliseconds" of
// the Table 3.1 testbed (2 GHz CPU).
const CyclesPerMS = 2_000_000

// transformSeed fixes compile-time randomness (static load-checking site
// selection) so every run of a variant executes the same binary.
const transformSeed = 12345

// Variant is one build configuration (Figure 3.5): the standard
// application, or a DPMR build identified by design, diversity
// transformation, and comparison policy.
type Variant struct {
	DPMR      bool
	Design    dpmr.Design
	Diversity dpmr.Diversity
	Policy    dpmr.Policy
}

// Stdapp is the untransformed application variant.
func Stdapp() Variant { return Variant{} }

// NewVariant builds a DPMR variant.
func NewVariant(design dpmr.Design, div dpmr.Diversity, pol dpmr.Policy) Variant {
	return Variant{DPMR: true, Design: design, Diversity: div, Policy: pol}
}

// Label uniquely identifies the variant (used as the result-map key).
func (v Variant) Label() string {
	if !v.DPMR {
		return "stdapp"
	}
	return v.Design.String() + "/" + v.Diversity.Name() + "/" + v.Policy.Name()
}

// DiversityLabel is the per-diversity short label used in Figures
// 3.6–3.10.
func (v Variant) DiversityLabel() string {
	if !v.DPMR {
		return "stdapp"
	}
	return v.Diversity.Name()
}

// PolicyLabel is the per-policy short label used in Figures 3.11–3.15.
func (v Variant) PolicyLabel() string {
	if !v.DPMR {
		return "stdapp"
	}
	return v.Policy.Name()
}

// transform applies the variant's DPMR transformation to m; stdapp
// returns m unchanged.
func (v Variant) transform(m *ir.Module) (*ir.Module, error) {
	if !v.DPMR {
		return m, nil
	}
	return dpmr.Transform(m, dpmr.Config{Design: v.Design, Diversity: v.Diversity, Policy: v.Policy, Seed: transformSeed})
}

// externs returns the extern library the variant's builds run against.
func (v Variant) externs() map[string]interp.Extern {
	if v.DPMR {
		return extlib.Wrapped(v.Design)
	}
	return extlib.Base()
}

// DiversityVariants returns the Figure 3.6–3.10 variant set: stdapp plus
// one DPMR variant per diversity transformation, all using the all-loads
// policy.
func DiversityVariants(design dpmr.Design) []Variant {
	out := []Variant{Stdapp()}
	for _, d := range dpmr.Diversities() {
		out = append(out, NewVariant(design, d, dpmr.AllLoads{}))
	}
	return out
}

// PolicyVariants returns the Figure 3.11–3.15 variant set: stdapp plus one
// DPMR variant per comparison policy, all using rearrange-heap (the
// best-performing diversity, §3.8).
func PolicyVariants(design dpmr.Design) []Variant {
	out := []Variant{Stdapp()}
	for _, p := range dpmr.Policies() {
		out = append(out, NewVariant(design, dpmr.RearrangeHeap{}, p))
	}
	return out
}

// Runner executes experiments. The zero value is not usable; construct
// with NewRunner, or with Options.Apply for a non-default execution
// policy.
//
// A Runner is a two-stage campaign engine. Stage 1 (build) produces each
// distinct (workload, site, variant) module exactly once — built,
// fault-injected, DPMR-transformed, optimized, and frozen — in a cache
// shared by every trial that executes that module. Stage 2 (execute)
// fans the trial grid out across the policy's worker goroutines; each
// trial runs its own VM over the shared read-only module (per-VM RNG,
// output, and address space), and outcomes are aggregated in canonical
// trial order so results are byte-identical at any worker count.
//
// The campaign entry points (RunCampaign, RunCampaignPartial,
// RunOverhead, …) take a Spec: the Spec's declarative fields (runs,
// timeout factor, memory geometry) are applied to the Runner before the
// plan is built, so the plan — and its fingerprint — is a pure function
// of the Spec. How trials execute is the Options that Apply set.
type Runner struct {
	// Optimize runs the post-transform optimizer stage on every variant
	// build, golden included (Figure 3.5 applies an optimize stage to all
	// compilation paths). Off by default so recorded numbers stay stable;
	// the optimizer ablation bench flips it. It changes the build, not the
	// execution policy, which is why it is not an Options field.
	Optimize bool
	// Events, when non-nil, receives the engine's typed event stream:
	// TrialDone and Progress after each completed trial, ShardMerged per
	// merged partial. Calls are serialized (never concurrent) but arrive
	// in completion order, not trial order. Options.Apply sets it from
	// Options.Events; set it directly only for low-level embedding.
	Events func(Event)

	// The Spec's declarative parameters, applied by applySpec.
	timeoutFactor uint64
	memConfig     mem.Config

	// The execution policy, set by Options.Apply: the worker count
	// (campaign drivers reject values < 1), the shard of the plan the
	// partial entry points run (zero = the whole plan), and whether
	// campaign and overhead modules are lowered to bytecode (see
	// compileModule).
	parallel int
	shard    ShardSpec
	compile  bool

	// clock reads the time a shard's ElapsedMS is measured on; nil is
	// time.Now. A deterministic clock makes journal bytes reproducible.
	clock func() time.Time

	mu         sync.Mutex // guards golden
	progressMu sync.Mutex // serializes Events callbacks
	golden     map[string]*goldenInfo
	cache      *moduleCache
}

type goldenInfo struct {
	once sync.Once
	res  *interp.Result
	err  error
}

// now reads the Runner's clock.
func (r *Runner) now() time.Time {
	if r.clock != nil {
		return r.clock()
	}
	return time.Now()
}

// NewRunner returns a Runner with the paper-matching defaults.
func NewRunner() *Runner {
	return &Runner{
		timeoutFactor: 20,
		memConfig:     defaultMem(),
		parallel:      1,
		compile:       true,
		golden:        make(map[string]*goldenInfo),
		cache:         newModuleCache(),
	}
}

// applySpec copies the normalized Spec's declarative execution
// parameters onto the Runner, making the Spec the single source of the
// values plan construction and trial execution read. A persistent
// worker's Runner may serve Specs of different memory geometries across
// assignments: golden results are memoized under the geometry they ran
// with, so a geometry change drops the golden cache (as spaces() switches
// to that geometry's pool) rather than serving baselines measured under
// a different address-space layout. Built modules are geometry-
// independent and stay cached.
func (r *Runner) applySpec(spec Spec) {
	r.timeoutFactor = spec.TimeoutFactor
	if r.memConfig != spec.Mem {
		r.mu.Lock()
		r.golden = make(map[string]*goldenInfo)
		r.mu.Unlock()
		r.memConfig = spec.Mem
	}
}

// notify forwards one event to the Events sink, serialized.
func (r *Runner) notify(ev Event) {
	if r.Events == nil {
		return
	}
	r.progressMu.Lock()
	r.Events(ev)
	r.progressMu.Unlock()
}

// spaces returns the process-wide address-space pool for the Runner's
// current memory geometry (mem.SharedPool). Trial VMs draw their spaces from it
// and return them after each run, so a campaign allocates roughly
// one space per worker total instead of one per trial, and a fresh Runner of
// the same geometry reuses the spaces earlier ones returned; a reset
// space replays runs identically to a fresh one (mem.Space.Reset), so
// results are unaffected.
func (r *Runner) spaces() *mem.Pool { return mem.SharedPool(r.memConfig) }

// compileModule lowers a frozen module for the fast interpreter path. A
// compile failure is not fatal — the module's trials simply run on the
// reference tree-walker, which is always semantically authoritative — so
// malformed-but-executable IR behaves exactly as it always has.
func (r *Runner) compileModule(m *ir.Module) *interp.Program {
	if !r.compile {
		return nil
	}
	prog, err := interp.Compile(m)
	if err != nil {
		return nil
	}
	return prog
}

// Golden runs (and caches) the fault-free standard build of w. Safe for
// concurrent use; the build-and-run happens exactly once per workload.
func (r *Runner) Golden(w workloads.Workload) (*interp.Result, error) {
	g := r.goldenEntry(w.Name)
	g.once.Do(func() {
		m, prog, err := r.base(w)
		if err != nil {
			g.err = err
			return
		}
		if r.Optimize {
			m = m.Clone()
			opt.Run(m)
			m.Freeze()
			prog = r.compileModule(m)
		}
		res := interp.Run(m, interp.Config{Externs: extlib.Base(), Mem: r.memConfig, Prog: prog, SpacePool: r.spaces()})
		if res.Kind != interp.ExitNormal || res.Code != 0 {
			g.err = fmt.Errorf("harness: golden %s failed: %v code %d (%s)", w.Name, res.Kind, res.Code, res.Reason)
			return
		}
		g.res = res
	})
	return g.res, g.err
}

// goldenEntry returns the golden memo entry under key, creating it on
// first use.
func (r *Runner) goldenEntry(key string) *goldenInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.golden[key]
	if !ok {
		g = &goldenInfo{}
		r.golden[key] = g
	}
	return g
}

// module returns the cached executable module for (workload, variant,
// injection) and its compiled program (nil on the reference interpreter), building
// both on first use (stage 1 of the engine). The returned module is
// frozen and, like the program, may back concurrent VMs.
func (r *Runner) module(w workloads.Workload, v Variant, inj *faultinject.Site) (*ir.Module, *interp.Program, error) {
	key := trial{w: w, v: v, inj: inj}.key()
	return r.cache.get(key, func() (*ir.Module, *interp.Program, error) { return r.buildVariant(w, v, inj) })
}

// base returns the cached untransformed, uninjected module of w, frozen
// and compiled. It seeds every variant build (faultinject.Apply clones
// it, Transform reads it) and site enumeration, so each workload is built
// from source exactly once per Runner.
func (r *Runner) base(w workloads.Workload) (*ir.Module, *interp.Program, error) {
	return r.cache.get(moduleKey{workload: w.Name, variant: "base"}, func() (*ir.Module, *interp.Program, error) {
		m := w.Build()
		m.Freeze()
		return m, r.compileModule(m), nil
	})
}

// buildVariant produces the executable module for (workload, variant,
// injection): inject (a clone of base), transform, optimize, freeze,
// compile. The stdapp/no-injection case returns the shared base (and its
// already-compiled program) rather than rebuilding it.
func (r *Runner) buildVariant(w workloads.Workload, v Variant, inj *faultinject.Site) (*ir.Module, *interp.Program, error) {
	bm, bprog, err := r.base(w)
	if err != nil {
		return nil, nil, err
	}
	m := bm
	if inj != nil {
		m, err = faultinject.Apply(m, *inj)
		if err != nil {
			return nil, nil, err
		}
	}
	if m, err = v.transform(m); err != nil {
		return nil, nil, err
	}
	if r.Optimize && m.Frozen() {
		// Uninjected, untransformed variant: the optimizer needs its own
		// mutable copy of the shared base.
		m = m.Clone()
	}
	if r.Optimize {
		opt.Run(m)
	}
	if m == bm {
		return bm, bprog, nil
	}
	m.Freeze()
	return m, r.compileModule(m), nil
}

// Outcome classifies one experiment run per §3.6: the serializable
// classification plus the raw interpreter result it was drawn from.
type Outcome struct {
	Res *interp.Result
	TrialOutcome
}

// Trial reduces the outcome to its serializable classification fields —
// everything campaign aggregation reads, and exactly what a sharded run
// ships between processes.
func (o Outcome) Trial() TrialOutcome { return o.TrialOutcome }

// TrialOutcome is the §3.6 classification of one campaign trial in
// serializable form. It is the unit of the partial-result format: a shard
// runs a contiguous range of the canonical trial plan and emits one
// TrialOutcome per trial; the merge aggregates the reassembled sequence
// exactly as an unsharded run would, so the classification here must
// carry every field aggregation touches (and nothing run-local like raw
// output buffers).
type TrialOutcome struct {
	// SF: the injected fault code executed at least once.
	SF bool `json:"sf,omitempty"`
	// CO: literal correct output — the run produced exactly the golden
	// run's output and exit status.
	CO bool `json:"co,omitempty"`
	// NatDet: natural detection — a crash (trap) or application-level
	// error signalling (nonzero, non-golden exit code).
	NatDet bool `json:"natDet,omitempty"`
	// DpmrDet: DPMR replica-comparison detection.
	DpmrDet bool `json:"dpmrDet,omitempty"`
	// T2DCycles: time to fault detection (total − time to first
	// successful injection), valid when Detected() and SF.
	T2DCycles uint64 `json:"t2dCycles,omitempty"`
	// ConsistViol: the consistency check flagged a shared-memory access
	// of the trial (concurrent kind only). Independent of the
	// §3.6 classes above — a violating trial can still be CO, which is
	// exactly the silent failure the trace checker surfaces.
	ConsistViol bool `json:"consistViol,omitempty"`
}

// Covered reports CO ∨ NatDet ∨ DpmrDet (Equation 3.2).
func (o TrialOutcome) Covered() bool { return o.CO || o.NatDet || o.DpmrDet }

// Detected reports any detection.
func (o TrialOutcome) Detected() bool { return o.NatDet || o.DpmrDet }

// RunOnce executes one experiment (W, C, D, I, RN). Safe for concurrent
// use: the module comes from the shared build cache and every run gets
// its own VM.
func (r *Runner) RunOnce(w workloads.Workload, v Variant, inj *faultinject.Site, rn int) (Outcome, error) {
	return r.runOnce(w, v, inj, rn, r.spaces())
}

// runOnce is RunOnce with the space pool resolved by the caller, so the
// campaign loops pay the Runner-mutex lookup once per batch rather than
// once per trial.
func (r *Runner) runOnce(w workloads.Workload, v Variant, inj *faultinject.Site, rn int, pool *mem.Pool) (Outcome, error) {
	golden, err := r.Golden(w)
	if err != nil {
		return Outcome{}, err
	}
	m, prog, err := r.module(w, v, inj)
	if err != nil {
		return Outcome{}, err
	}
	res := interp.Run(m, interp.Config{
		Externs:   v.externs(),
		Mem:       r.memConfig,
		Seed:      int64(rn) + 1,
		StepLimit: stepBudget(golden.Steps, r.timeoutFactor), // DPMR variants are slower per step budget
		Prog:      prog,
		SpacePool: pool,
	})
	return r.classify(golden, res), nil
}

func (r *Runner) classify(golden, res *interp.Result) Outcome {
	o := Outcome{Res: res, TrialOutcome: TrialOutcome{SF: res.FaultSeen}}
	switch res.Kind {
	case interp.ExitNormal:
		if res.Code == golden.Code && bytes.Equal(res.Output, golden.Output) {
			o.CO = true
		} else if res.Code != 0 && res.Code != golden.Code {
			// Application-dependent error signalling (§3.6 natural
			// detection: "an exit with an error-identifying return
			// value").
			o.NatDet = true
		}
	case interp.ExitTrap:
		o.NatDet = true
	case interp.ExitDetect:
		o.DpmrDet = true
	case interp.ExitTimeout:
		// Neither covered nor detected.
	case interp.ExitError:
		// Harness bug: surface loudly via NatDet=false, CO=false.
	}
	if o.Detected() && res.FaultSeen && res.Cycles >= res.FaultCycle {
		o.T2DCycles = res.Cycles - res.FaultCycle
	}
	return o
}

// ---------------------------------------------------------------------------
// Aggregated metrics

// CoverageCell aggregates coverage for one (workload, variant) pair:
// disjoint fractions of successfully injected experiments (Figures
// 3.6–3.9 stacked bars).
type CoverageCell struct {
	N       int     // successful injections observed
	CO      float64 // correct output
	NatDet  float64 // natural detection (and not CO)
	DpmrDet float64 // DPMR detection (and not CO)
	// MeanT2DMS averages detection latency over detected runs
	// (Tables 3.3/3.4/4.5/4.6).
	MeanT2DMS float64
	detN      int
}

// Coverage returns total coverage.
func (c CoverageCell) Coverage() float64 { return c.CO + c.NatDet + c.DpmrDet }

func (c *CoverageCell) add(o TrialOutcome) {
	if !o.SF {
		return
	}
	c.N++
	switch {
	case o.CO:
		c.CO++
	case o.DpmrDet:
		c.DpmrDet++
	case o.NatDet:
		c.NatDet++
	}
	if o.Detected() && !o.CO {
		c.MeanT2DMS += float64(o.T2DCycles) / CyclesPerMS
		c.detN++
	}
}

func (c *CoverageCell) finalize() {
	if c.N > 0 {
		c.CO /= float64(c.N)
		c.NatDet /= float64(c.N)
		c.DpmrDet /= float64(c.N)
	}
	if c.detN > 0 {
		c.MeanT2DMS /= float64(c.detN)
	}
}

// CampaignResult holds per-(workload, variant) coverage plus the
// conditional-coverage aggregate (Figures 3.8/3.9: combined across
// applications, conditioned on StdNotAllDet).
type CampaignResult struct {
	Kind        faultinject.Kind
	Workloads   []string
	Variants    []Variant
	Cells       map[string]map[string]*CoverageCell // variant label → workload → cell
	Conditional map[string]*CoverageCell            // variant label → aggregate
}

// Cell retrieves a coverage cell.
func (cr *CampaignResult) Cell(variant Variant, workload string) *CoverageCell {
	return cr.Cells[variant.Label()][workload]
}

// siteJob records where one injection site's trials live in the flat
// canonical plan.
type siteJob struct {
	site faultinject.Site
	std  int   // index of the first stdapp trial
	vars []int // per variant: first trial index, or -1 (reuses stdapp)
}

// campaignPlan is the canonical flat trial layout of a campaign. It is a
// pure function of the normalized campaign Spec: two processes planning
// the same Spec produce identical plans, which is what makes contiguous
// index ranges a host-independent sharding unit. The fingerprint hashes
// the Spec's canonical JSON plus the enumerated sites, so MergeCampaign
// can refuse partial results produced from a different plan.
type campaignPlan struct {
	kind        faultinject.Kind
	runs        int
	workloads   []string
	variants    []Variant
	trials      []trial
	jobs        [][]siteJob // per workload, in workload order
	fingerprint string
}

// planCampaign lays the (workload, site, variant, run) grid out flat in
// canonical order from the normalized campaign Spec. Each site gets Runs
// stdapp trials (they feed both the stdapp rows and the StdNotAllDet
// condition) plus Runs trials per DPMR variant; non-DPMR variants reuse
// the stdapp outcomes exactly as the serial engine always did.
func (r *Runner) planCampaign(spec Spec) (*campaignPlan, error) {
	ws, err := spec.resolveWorkloads()
	if err != nil {
		return nil, err
	}
	variants, err := spec.resolveVariants()
	if err != nil {
		return nil, err
	}
	kind, err := parseInject(spec.Inject)
	if err != nil {
		return nil, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	// Enumerate every workload's sites first, so the exact trial count
	// is checked against MaxPlannedTrials before the plan is allocated.
	wsites := make([][]faultinject.Site, len(ws))
	planned := uint64(0)
	for wi, w := range ws {
		bm, _, err := r.base(w)
		if err != nil {
			return nil, err
		}
		wsites[wi] = sampleSites(faultinject.Enumerate(bm, kind), spec.MaxSites)
		planned += uint64(len(wsites[wi]))
	}
	planned = satMul(planned, satMul(uint64(spec.Runs), 1+spec.dpmrVariants()))
	if err := checkPlanned(planned); err != nil {
		return nil, err
	}
	p := &campaignPlan{kind: kind, runs: spec.Runs, variants: variants, jobs: make([][]siteJob, len(ws)),
		trials: make([]trial, 0, planned)}
	h := sha256.New()
	fmt.Fprintf(h, "dpmr campaign plan v2\nspec %s\n", canon)
	for wi, w := range ws {
		p.workloads = append(p.workloads, w.Name)
		fmt.Fprintf(h, "workload %s\n", w.Name)
		for _, site := range wsites[wi] {
			site := site
			fmt.Fprintf(h, "site %s\n", site)
			job := siteJob{site: site, std: len(p.trials), vars: make([]int, len(variants))}
			for rn := 0; rn < spec.Runs; rn++ {
				p.trials = append(p.trials, trial{w: w, v: Stdapp(), inj: &site, rn: rn})
			}
			for vi, v := range variants {
				job.vars[vi] = -1
				if v.DPMR {
					job.vars[vi] = len(p.trials)
					for rn := 0; rn < spec.Runs; rn++ {
						p.trials = append(p.trials, trial{w: w, v: v, inj: &site, rn: rn})
					}
				}
			}
			p.jobs[wi] = append(p.jobs[wi], job)
		}
	}
	fmt.Fprintf(h, "trials %d\n", len(p.trials))
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// aggregate folds the full plan's trial outcomes into a CampaignResult in
// canonical order: identical iteration order (and thus identical
// floating-point accumulation) to the serial engine, regardless of how
// the outcomes were produced — one process, many workers, or merged
// shards.
func aggregate(plan *campaignPlan, outcomes []TrialOutcome) *CampaignResult {
	cr := &CampaignResult{
		Kind:        plan.kind,
		Workloads:   plan.workloads,
		Variants:    plan.variants,
		Cells:       make(map[string]map[string]*CoverageCell),
		Conditional: make(map[string]*CoverageCell),
	}
	for _, v := range plan.variants {
		cr.Cells[v.Label()] = make(map[string]*CoverageCell)
		cr.Conditional[v.Label()] = &CoverageCell{}
		for _, wname := range plan.workloads {
			cr.Cells[v.Label()][wname] = &CoverageCell{}
		}
	}
	for wi, wname := range plan.workloads {
		for _, job := range plan.jobs[wi] {
			stdOutcomes := outcomes[job.std : job.std+plan.runs]
			// Per-injection StdNotAllDet: at least one stdapp run with
			// incorrect output and no natural detection (Table 3.2).
			stdNotAllDet := false
			for _, o := range stdOutcomes {
				if o.SF && !o.CO && !o.NatDet {
					stdNotAllDet = true
				}
			}
			for vi, v := range plan.variants {
				outs := stdOutcomes
				if job.vars[vi] >= 0 {
					outs = outcomes[job.vars[vi] : job.vars[vi]+plan.runs]
				}
				cell := cr.Cells[v.Label()][wname]
				cond := cr.Conditional[v.Label()]
				for _, o := range outs {
					cell.add(o)
					if stdNotAllDet {
						cond.add(o)
					}
				}
			}
		}
	}
	for _, byW := range cr.Cells {
		for _, c := range byW {
			c.finalize()
		}
	}
	for _, c := range cr.Conditional {
		c.finalize()
	}
	return cr
}

// validate rejects Runner configurations the campaign drivers would
// otherwise silently misinterpret: a non-positive worker count, or a
// shard outside [0, Count).
func (r *Runner) validate() error {
	if r.parallel < 1 {
		return fmt.Errorf("harness: Parallel = %d: campaigns need at least 1 worker", r.parallel)
	}
	return r.shard.Validate()
}

// cancelled reports whether err is the context's cancellation (rather
// than a trial failure).
func cancelled(ctx context.Context, err error) bool {
	return ctx.Err() != nil && errors.Is(err, context.Cause(ctx))
}

// RunCampaign executes the full injection campaign the Spec describes —
// every workload, enumerated site of the fault kind, variant, and run —
// on the Runner's worker pool and aggregates it in canonical trial
// order, byte-identical at every worker count. Cancelling ctx returns
// ctx's error (RunCampaignPartial and Session keep the completed
// prefix); a Runner with a proper shard is refused — use
// RunCampaignPartial and MergeCampaign for sharded execution.
func (r *Runner) RunCampaign(ctx context.Context, spec Spec) (*CampaignResult, error) {
	res, err := r.runWhole(ctx, spec, SpecCampaign, "RunCampaign")
	return res.Campaign(), err
}

// campaignKind is the injection campaign's pipeline (see kind).
type campaignKind struct{ p *campaignPlan }

func (k *campaignKind) plan(r *Runner, spec Spec) (string, int, error) {
	p, err := r.planCampaign(spec)
	if err != nil {
		return "", 0, err
	}
	k.p = p
	return p.fingerprint, len(p.trials), nil
}

func (k *campaignKind) exec(ctx context.Context, r *Runner, lo, hi int, live lastUse) (partial, error) {
	outcomes, err := r.execTrials(ctx, k.p, lo, hi, live)
	return &PartialResult{Lo: lo, Hi: lo + len(outcomes), Outcomes: outcomes}, err
}

func (k *campaignKind) module(i int) (moduleKey, bool) {
	t := k.p.trials[i]
	// Uninjected campaign trials run the bases, which seed every other
	// build; only per-(site, variant) modules leave after their last
	// trial.
	return t.key(), t.inj != nil
}

func (k *campaignKind) aggregate(parts []partial) any {
	return aggregate(k.p, outcomeRows(len(k.p.trials), parts))
}

func (k *campaignKind) decode(r io.Reader) (partial, error) { return widen(DecodePartial(r)) }

// render prints one coverage block per (workload, variant) cell — for
// the CLI's single-workload, single-variant campaign exactly one block.
func (k *campaignKind) render(w io.Writer, agg any, how string) {
	cr := agg.(*CampaignResult)
	for _, variant := range cr.Variants {
		for _, wname := range cr.Workloads {
			c := cr.Cell(variant, wname)
			fmt.Fprintf(w, "campaign: %s %s variant %s, %s\n", wname, cr.Kind, variant.Label(), how)
			fmt.Fprintf(w, "injections: %d successful\n", c.N)
			fmt.Fprintf(w, "coverage:   CO %.2f + NatDet %.2f + DpmrDet %.2f = %.2f\n",
				c.CO, c.NatDet, c.DpmrDet, c.Coverage())
			if c.MeanT2DMS > 0 {
				fmt.Fprintf(w, "latency:    mean time to detection %.3f ms\n", c.MeanT2DMS)
			}
		}
	}
}

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
