package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
)

// Options tunes *how* experiment regeneration executes. What to run —
// workloads, runs, site caps, the experiment id — lives in the Spec;
// Options carries only execution policy, so a worker process and the
// coordinator that spawned it can hold different Options while sharing
// one Spec (and therefore one plan fingerprint).
type Options struct {
	// Parallel is the campaign worker count (0 = default 1 = serial).
	// Output is byte-identical at any worker count.
	Parallel int
	// Evict releases each injected module from the build cache after its
	// final trial, bounding peak module residency on large campaigns.
	Evict bool
	// Reference forces campaign and overhead trials onto the
	// tree-walking reference interpreter instead of the compiled module
	// bytecode (CLI -compile=false); concurrent groups always run
	// compiled. Output is byte-identical either way; the switch exists
	// for A/B measurement and debugging.
	Reference bool
	// Precompile launches that many background AOT workers that build
	// and compile upcoming modules ahead of the execution frontier (see
	// Runner.Precompile). 0 disables prefetching; output is
	// byte-identical at any value.
	Precompile int
	// Events, when non-nil, receives the engine's typed event stream
	// (TrialDone, Progress, ShardMerged). Session installs its channel
	// sink here; direct callers may install a callback.
	Events func(Event)
	// Runner, when non-nil, executes the experiments instead of a fresh
	// NewRunner per generator invocation. A persistent worker serving
	// several shard assignments of one plan sets this so the module and
	// golden caches stay warm across assignments.
	Runner *Runner

	// campaign/overhead interpose on experiment execution; they are how
	// GenerateSharded and GenerateMerged reroute the campaigns inside a
	// generator through partial runs and merges without the generator
	// knowing.
	campaignExec func(ctx context.Context, r *Runner, spec Spec) (*CampaignResult, error)
	overheadExec func(ctx context.Context, r *Runner, spec Spec) (*OverheadResult, error)
}

func (o Options) runner() *Runner {
	r := o.Runner
	if r == nil {
		r = NewRunner()
	}
	if o.Parallel != 0 {
		r.Parallel = o.Parallel
	}
	r.EvictModules = o.Evict
	r.Compile = !o.Reference
	r.Precompile = o.Precompile
	r.Events = o.Events
	return r
}

// campaign runs (or reroutes) one campaign of an experiment.
func (o Options) campaign(ctx context.Context, r *Runner, spec Spec) (*CampaignResult, error) {
	if o.campaignExec != nil {
		return o.campaignExec(ctx, r, spec)
	}
	return r.RunCampaign(ctx, spec)
}

// overhead runs (or reroutes) one overhead measurement of an experiment.
func (o Options) overhead(ctx context.Context, r *Runner, spec Spec) (*OverheadResult, error) {
	if o.overheadExec != nil {
		return o.overheadExec(ctx, r, spec)
	}
	return r.RunOverhead(ctx, spec)
}

// campaignSpec derives the generator's campaign sub-Spec from the
// normalized experiment Spec.
func campaignSpec(exp Spec, kind faultinject.Kind, variants []Variant) Spec {
	s := exp.derive(SpecCampaign)
	s.Inject = kind.String()
	s.Variants = VariantSpecs(variants...)
	return s
}

// overheadSpec derives the generator's overhead sub-Spec from the
// normalized experiment Spec.
func overheadSpec(exp Spec, variants []Variant) Spec {
	s := exp.derive(SpecOverhead)
	s.Variants = VariantSpecs(variants...)
	return s
}

// ExperimentIDs lists every regenerable table/figure id in paper order.
func ExperimentIDs() []string {
	return []string{
		"fig3.6", "fig3.7", "fig3.8", "fig3.9", "fig3.10",
		"tab3.3", "fig3.11", "fig3.12", "fig3.13", "fig3.14",
		"fig3.15", "fig3.16", "tab3.4",
		"fig4.3", "fig4.4", "fig4.5", "fig4.6",
		"fig4.7", "fig4.8", "fig4.9", "fig4.10",
		"fig4.11", "fig4.12", "fig4.13", "fig4.14",
		"tab4.5", "tab4.6",
	}
}

// Generate regenerates the table/figure the experiment Spec names
// (spec.Exp), writing its data to w. Cancelling ctx stops the
// experiment's campaigns mid-grid and returns ctx's error.
func Generate(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	n, err := spec.normalizedAs(SpecExperiment, "Generate")
	if err != nil {
		return err
	}
	gen, ok := generators()[n.Exp]
	if !ok {
		return fmt.Errorf("harness: unknown experiment id %q (known: %s)",
			n.Exp, strings.Join(ExperimentIDs(), ", "))
	}
	return gen(ctx, n, w, opts)
}

// genFunc renders one experiment from its normalized experiment Spec.
type genFunc func(ctx context.Context, spec Spec, w io.Writer, opts Options) error

func generators() map[string]genFunc {
	g := map[string]genFunc{}

	// Chapter 3 (SDS) — diversity transformations.
	g["fig3.6"] = coverageGen("Figure 3.6: Mean heap array resize coverage of diversity transformations (SDS)",
		dpmr.SDS, faultinject.HeapArrayResize, DiversityVariants, false, labelDiversity)
	g["fig3.7"] = coverageGen("Figure 3.7: Mean immediate free coverage of diversity transformations (SDS)",
		dpmr.SDS, faultinject.ImmediateFree, DiversityVariants, false, labelDiversity)
	g["fig3.8"] = coverageGen("Figure 3.8: Mean heap array resize conditional coverage of diversity transformations (SDS)",
		dpmr.SDS, faultinject.HeapArrayResize, DiversityVariants, true, labelDiversity)
	g["fig3.9"] = coverageGen("Figure 3.9: Mean immediate free conditional coverage of diversity transformations (SDS)",
		dpmr.SDS, faultinject.ImmediateFree, DiversityVariants, true, labelDiversity)
	g["fig3.10"] = overheadGen("Figure 3.10: Overhead of diversity transformations (SDS, ×golden)",
		func() []Variant { return DiversityVariants(dpmr.SDS) }, labelDiversity)
	g["tab3.3"] = latencyGen("Table 3.3: Mean time to detection of diversity transformations (SDS, ms)",
		dpmr.SDS, DiversityVariants, labelDiversity)

	// Chapter 3 (SDS) — comparison policies.
	g["fig3.11"] = coverageGen("Figure 3.11: Mean heap array resize coverage of state comparison policies (SDS, rearrange-heap)",
		dpmr.SDS, faultinject.HeapArrayResize, PolicyVariants, false, labelPolicy)
	g["fig3.12"] = coverageGen("Figure 3.12: Mean immediate free coverage of state comparison policies (SDS, rearrange-heap)",
		dpmr.SDS, faultinject.ImmediateFree, PolicyVariants, false, labelPolicy)
	g["fig3.13"] = coverageGen("Figure 3.13: Mean heap array resize conditional coverage of state comparison policies (SDS)",
		dpmr.SDS, faultinject.HeapArrayResize, PolicyVariants, true, labelPolicy)
	g["fig3.14"] = coverageGen("Figure 3.14: Mean immediate free conditional coverage of state comparison policies (SDS)",
		dpmr.SDS, faultinject.ImmediateFree, PolicyVariants, true, labelPolicy)
	g["fig3.15"] = overheadGen("Figure 3.15: Overhead of state comparison policies (SDS, rearrange-heap, ×golden)",
		func() []Variant { return PolicyVariants(dpmr.SDS) }, labelPolicy)
	g["fig3.16"] = fig316
	g["tab3.4"] = latencyGen("Table 3.4: Mean time to detection of state comparison policies (SDS, ms)",
		dpmr.SDS, PolicyVariants, labelPolicy)

	// Chapter 4 (MDS).
	g["fig4.3"] = fig43
	g["fig4.4"] = fig44
	g["fig4.5"] = overheadGen("Figure 4.5: MDS overhead of diversity transformations (×golden)",
		func() []Variant { return DiversityVariants(dpmr.MDS) }, labelDiversity)
	g["fig4.6"] = overheadGen("Figure 4.6: MDS overhead of state comparison policies (rearrange-heap, ×golden)",
		func() []Variant { return PolicyVariants(dpmr.MDS) }, labelPolicy)
	g["fig4.7"] = coverageGen("Figure 4.7: Mean MDS heap array resize coverage of diversity transformations",
		dpmr.MDS, faultinject.HeapArrayResize, DiversityVariants, false, labelDiversity)
	g["fig4.8"] = coverageGen("Figure 4.8: Mean MDS immediate free coverage of diversity transformations",
		dpmr.MDS, faultinject.ImmediateFree, DiversityVariants, false, labelDiversity)
	g["fig4.9"] = coverageGen("Figure 4.9: Mean MDS heap array resize conditional coverage of diversity transformations",
		dpmr.MDS, faultinject.HeapArrayResize, DiversityVariants, true, labelDiversity)
	g["fig4.10"] = coverageGen("Figure 4.10: Mean MDS immediate free conditional coverage of diversity transformations",
		dpmr.MDS, faultinject.ImmediateFree, DiversityVariants, true, labelDiversity)
	g["fig4.11"] = coverageGen("Figure 4.11: Mean MDS heap array resize coverage of state comparison policies",
		dpmr.MDS, faultinject.HeapArrayResize, PolicyVariants, false, labelPolicy)
	g["fig4.12"] = coverageGen("Figure 4.12: Mean MDS immediate free coverage of state comparison policies",
		dpmr.MDS, faultinject.ImmediateFree, PolicyVariants, false, labelPolicy)
	g["fig4.13"] = coverageGen("Figure 4.13: Mean MDS heap array resize conditional coverage of state comparison policies",
		dpmr.MDS, faultinject.HeapArrayResize, PolicyVariants, true, labelPolicy)
	g["fig4.14"] = coverageGen("Figure 4.14: Mean MDS immediate free conditional coverage of state comparison policies",
		dpmr.MDS, faultinject.ImmediateFree, PolicyVariants, true, labelPolicy)
	g["tab4.5"] = latencyGen("Table 4.5: Mean time to detection of diversity transformations under MDS (ms)",
		dpmr.MDS, DiversityVariants, labelDiversity)
	g["tab4.6"] = latencyGen("Table 4.6: Mean time to detection of state comparison policies under MDS (ms)",
		dpmr.MDS, PolicyVariants, labelPolicy)
	return g
}

type labelFunc func(Variant) string

func labelDiversity(v Variant) string { return v.DiversityLabel() }
func labelPolicy(v Variant) string    { return v.PolicyLabel() }

// ---------------------------------------------------------------------------
// Generators

func coverageGen(title string, design dpmr.Design, kind faultinject.Kind,
	variantsOf func(dpmr.Design) []Variant, conditional bool, lbl labelFunc) genFunc {
	return func(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
		r := opts.runner()
		cr, err := opts.campaign(ctx, r, campaignSpec(spec, kind, variantsOf(design)))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		if conditional {
			renderConditional(w, cr, lbl)
		} else {
			renderCoverage(w, cr, lbl)
		}
		return nil
	}
}

func renderCoverage(w io.Writer, cr *CampaignResult, lbl labelFunc) {
	fmt.Fprintf(w, "%-20s", "variant")
	for _, name := range cr.Workloads {
		fmt.Fprintf(w, " %26s", name+" (CO/Nat/Dpmr=cov)")
	}
	fmt.Fprintln(w)
	for _, v := range cr.Variants {
		fmt.Fprintf(w, "%-20s", lbl(v))
		for _, name := range cr.Workloads {
			c := cr.Cells[v.Label()][name]
			fmt.Fprintf(w, " %10s", "")
			fmt.Fprintf(w, "%.2f/%.2f/%.2f=%.2f", c.CO, c.NatDet, c.DpmrDet, c.Coverage())
		}
		fmt.Fprintln(w)
	}
}

func renderConditional(w io.Writer, cr *CampaignResult, lbl labelFunc) {
	fmt.Fprintf(w, "%-20s %8s %8s %8s %8s %6s\n", "variant", "CO", "NatDet", "DpmrDet", "coverage", "n")
	for _, v := range cr.Variants {
		c := cr.Conditional[v.Label()]
		fmt.Fprintf(w, "%-20s %8.2f %8.2f %8.2f %8.2f %6d\n",
			lbl(v), c.CO, c.NatDet, c.DpmrDet, c.Coverage(), c.N)
	}
}

func overheadGen(title string, variantsOf func() []Variant, lbl labelFunc) genFunc {
	return func(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
		r := opts.runner()
		or, err := opts.overhead(ctx, r, overheadSpec(spec, variantsOf()))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		renderOverhead(w, or, lbl)
		return nil
	}
}

func renderOverhead(w io.Writer, or *OverheadResult, lbl labelFunc) {
	fmt.Fprintf(w, "%-20s", "variant")
	for _, name := range or.Workloads {
		fmt.Fprintf(w, " %8s", name)
	}
	fmt.Fprintln(w)
	for _, v := range or.Variants {
		fmt.Fprintf(w, "%-20s", lbl(v))
		for _, name := range or.Workloads {
			fmt.Fprintf(w, " %8.2f", or.Ratio[v.Label()][name])
		}
		fmt.Fprintln(w)
	}
}

func latencyGen(title string, design dpmr.Design, variantsOf func(dpmr.Design) []Variant, lbl labelFunc) genFunc {
	return func(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
		r := opts.runner()
		fmt.Fprintln(w, title)
		for _, kind := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
			cr, err := opts.campaign(ctx, r, campaignSpec(spec, kind, variantsOf(design)))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "-- %s --\n", kind)
			fmt.Fprintf(w, "%-20s", "variant")
			for _, name := range cr.Workloads {
				fmt.Fprintf(w, " %10s", name)
			}
			fmt.Fprintln(w)
			for _, v := range cr.Variants {
				if !v.DPMR {
					continue // the tables list DPMR variants only
				}
				fmt.Fprintf(w, "%-20s", lbl(v))
				for _, name := range cr.Workloads {
					fmt.Fprintf(w, " %10.3f", cr.Cells[v.Label()][name].MeanT2DMS)
				}
				fmt.Fprintln(w)
			}
		}
		return nil
	}
}

// fig316 is the Figure 3.16 ablation: naive temporal checking vs. the
// periodicity-exploiting gate.
func fig316(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	r := opts.runner()
	variants := []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.PeriodicLoadChecking{Period: 2}),
	}
	or, err := opts.overhead(ctx, r, overheadSpec(spec, variants))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3.16: Exploiting periodicity to improve temporal load-checking overhead (SDS, ×golden)")
	renderOverhead(w, or, labelPolicy)
	return nil
}

// fig43 renders the side-by-side SDS/MDS diversity overhead comparison.
func fig43(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	divs := []dpmr.Diversity{
		dpmr.NoDiversity{}, dpmr.ZeroBeforeFree{}, dpmr.RearrangeHeap{}, dpmr.PadMalloc{Pad: 32},
	}
	fmt.Fprintln(w, "Figure 4.3: Side-by-side diversity transformation overheads of SDS and MDS (×golden)")
	return sideBySide(ctx, spec, w, opts, func(design dpmr.Design) []Variant {
		var vs []Variant
		for _, d := range divs {
			vs = append(vs, NewVariant(design, d, dpmr.AllLoads{}))
		}
		return vs
	}, labelDiversity)
}

// fig44 renders the side-by-side SDS/MDS policy overhead comparison
// (static policies plus all-loads; temporal is excluded as in the paper,
// §4.5).
func fig44(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	pols := []dpmr.Policy{
		dpmr.StaticLoadChecking{Percent: 10},
		dpmr.StaticLoadChecking{Percent: 50},
		dpmr.StaticLoadChecking{Percent: 90},
		dpmr.AllLoads{},
	}
	fmt.Fprintln(w, "Figure 4.4: Side-by-side comparison policy overheads of SDS and MDS (rearrange-heap, ×golden)")
	return sideBySide(ctx, spec, w, opts, func(design dpmr.Design) []Variant {
		var vs []Variant
		for _, p := range pols {
			vs = append(vs, NewVariant(design, dpmr.RearrangeHeap{}, p))
		}
		return vs
	}, labelPolicy)
}

func sideBySide(ctx context.Context, spec Spec, w io.Writer, opts Options,
	variantsOf func(dpmr.Design) []Variant, lbl labelFunc) error {
	r := opts.runner()
	sds, err := opts.overhead(ctx, r, overheadSpec(spec, variantsOf(dpmr.SDS)))
	if err != nil {
		return err
	}
	mds, err := opts.overhead(ctx, r, overheadSpec(spec, variantsOf(dpmr.MDS)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s", "variant")
	for _, name := range sds.Workloads {
		fmt.Fprintf(w, " %8s", name)
	}
	fmt.Fprintln(w)
	for i, v := range sds.Variants {
		fmt.Fprintf(w, "SDS %-22s", lbl(v))
		for _, name := range sds.Workloads {
			fmt.Fprintf(w, " %8.2f", sds.Ratio[v.Label()][name])
		}
		fmt.Fprintln(w)
		mv := mds.Variants[i]
		fmt.Fprintf(w, "MDS %-22s", lbl(mv))
		for _, name := range mds.Workloads {
			fmt.Fprintf(w, " %8.2f", mds.Ratio[mv.Label()][name])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sharded experiment generation

// ExperimentPartial is the partial-result file one shard of a sharded
// dpmr-exp run emits: one PartialResult per injection campaign and one
// OverheadPartial per overhead measurement the experiment executes, each
// in execution order (latency tables run two campaigns; coverage figures
// run one campaign; overhead figures run one or more measurements).
type ExperimentPartial struct {
	Exp       string             `json:"exp"`
	Shard     ShardSpec          `json:"shard"`
	Campaigns []*PartialResult   `json:"campaigns,omitempty"`
	Overheads []*OverheadPartial `json:"overheads,omitempty"`
}

// DecodeExperimentPartial reads a JSON experiment partial and validates
// its shape. It never panics on malformed input.
func DecodeExperimentPartial(r io.Reader) (*ExperimentPartial, error) {
	var ep ExperimentPartial
	if err := json.NewDecoder(r).Decode(&ep); err != nil {
		return nil, fmt.Errorf("harness: decoding experiment partial: %w", err)
	}
	if ep.Exp == "" {
		return nil, fmt.Errorf("harness: experiment partial: missing experiment id")
	}
	if len(ep.Campaigns) == 0 && len(ep.Overheads) == 0 {
		return nil, fmt.Errorf("harness: experiment partial %s: no campaigns or overhead measurements", ep.Exp)
	}
	for _, p := range ep.Campaigns {
		if p == nil {
			return nil, fmt.Errorf("harness: experiment partial %s: nil campaign", ep.Exp)
		}
		if err := p.check(); err != nil {
			return nil, err
		}
	}
	for _, p := range ep.Overheads {
		if p == nil {
			return nil, fmt.Errorf("harness: experiment partial %s: nil overhead measurement", ep.Exp)
		}
		if err := p.check(); err != nil {
			return nil, err
		}
	}
	return &ep, nil
}

// GenerateSharded runs shard `shard` of the Spec-named experiment's
// injection campaigns and overhead measurements and JSON-encodes the
// resulting ExperimentPartial to out. Every experiment in the suite is
// shardable; merge the shards' outputs with GenerateMerged. A cancelled
// ctx fails the shard (a worker must not emit an incomplete partial as
// if it covered its range).
func GenerateSharded(ctx context.Context, spec Spec, shard ShardSpec, out io.Writer, opts Options) error {
	if shard.Count < 1 {
		return fmt.Errorf("harness: GenerateSharded: shard %s: count must be at least 1", shard)
	}
	if err := shard.Validate(); err != nil {
		return err
	}
	n, err := spec.normalizedAs(SpecExperiment, "GenerateSharded")
	if err != nil {
		return err
	}
	ep := &ExperimentPartial{Exp: n.Exp, Shard: shard}
	opts.campaignExec = func(ctx context.Context, r *Runner, spec Spec) (*CampaignResult, error) {
		r.Shard = shard
		p, plan, err := r.runCampaignPartial(ctx, spec)
		if err != nil {
			return nil, err
		}
		ep.Campaigns = append(ep.Campaigns, p)
		// Rendering goes to io.Discard; a structurally complete stand-in
		// (all cells present, zero-valued) keeps the generator's render
		// path happy without running the other shards' trials.
		return aggregate(plan, make([]TrialOutcome, len(plan.trials))), nil
	}
	opts.overheadExec = func(ctx context.Context, r *Runner, spec Spec) (*OverheadResult, error) {
		r.Shard = shard
		p, plan, err := r.runOverheadPartial(ctx, spec)
		if err != nil {
			return nil, err
		}
		ep.Overheads = append(ep.Overheads, p)
		// Same stand-in trick: zero cycles render as 0/NaN ratios into
		// io.Discard without running the other shards' measurements.
		return aggregateOverhead(plan, make([]uint64, len(plan.trials))), nil
	}
	if err := Generate(ctx, n, io.Discard, opts); err != nil {
		return err
	}
	if len(ep.Campaigns) == 0 && len(ep.Overheads) == 0 {
		return fmt.Errorf("harness: experiment %s runs no campaign or overhead measurement; nothing to shard", n.Exp)
	}
	if err := json.NewEncoder(out).Encode(ep); err != nil {
		return fmt.Errorf("harness: encoding experiment partial: %w", err)
	}
	return nil
}

// GenerateMerged merges the shards of a sharded experiment run and
// renders the report to out, byte-identical to an unsharded Generate of
// the same Spec. Each reader supplies one shard's ExperimentPartial.
// spec.Exp may be "" to take the experiment id from the partials; when
// given, it must match them. One ShardMerged event is emitted per
// partial per merged plan.
func GenerateMerged(ctx context.Context, spec Spec, out io.Writer, partials []io.Reader, opts Options) error {
	if len(partials) == 0 {
		return fmt.Errorf("harness: GenerateMerged: no partial results")
	}
	id := spec.Exp
	eps := make([]*ExperimentPartial, len(partials))
	for i, rd := range partials {
		ep, err := DecodeExperimentPartial(rd)
		if err != nil {
			return err
		}
		if id == "" {
			id = ep.Exp
		}
		if ep.Exp != id {
			return fmt.Errorf("harness: GenerateMerged: partial %d is shard %s of experiment %s, want %s", i, ep.Shard, ep.Exp, id)
		}
		if i > 0 && len(ep.Campaigns) != len(eps[0].Campaigns) {
			return fmt.Errorf("harness: GenerateMerged: partial %d holds %d campaigns, partial 0 holds %d", i, len(ep.Campaigns), len(eps[0].Campaigns))
		}
		if i > 0 && len(ep.Overheads) != len(eps[0].Overheads) {
			return fmt.Errorf("harness: GenerateMerged: partial %d holds %d overhead measurements, partial 0 holds %d", i, len(ep.Overheads), len(eps[0].Overheads))
		}
		eps[i] = ep
	}
	spec.Exp = id
	nCampaigns, nOverheads := len(eps[0].Campaigns), len(eps[0].Overheads)
	ci, oi := 0, 0
	opts.campaignExec = func(_ context.Context, r *Runner, spec Spec) (*CampaignResult, error) {
		if ci >= nCampaigns {
			return nil, fmt.Errorf("harness: experiment %s runs more than the %d campaigns the partials hold", id, nCampaigns)
		}
		parts := make([]*PartialResult, len(eps))
		for j, ep := range eps {
			parts[j] = ep.Campaigns[ci]
		}
		ci++
		return r.MergeCampaign(spec, parts)
	}
	opts.overheadExec = func(_ context.Context, r *Runner, spec Spec) (*OverheadResult, error) {
		if oi >= nOverheads {
			return nil, fmt.Errorf("harness: experiment %s runs more than the %d overhead measurements the partials hold", id, nOverheads)
		}
		parts := make([]*OverheadPartial, len(eps))
		for j, ep := range eps {
			parts[j] = ep.Overheads[oi]
		}
		oi++
		return r.MergeOverhead(spec, parts)
	}
	if err := Generate(ctx, spec, out, opts); err != nil {
		return err
	}
	if ci != nCampaigns {
		return fmt.Errorf("harness: partials hold %d campaigns but experiment %s ran only %d", nCampaigns, id, ci)
	}
	if oi != nOverheads {
		return fmt.Errorf("harness: partials hold %d overhead measurements but experiment %s ran only %d", nOverheads, id, oi)
	}
	return nil
}

// GenerateAll regenerates every experiment in order, using spec (whose
// Exp field is overridden per experiment) for the shared declarative
// parameters.
func GenerateAll(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	ids := ExperimentIDs()
	sort.SliceStable(ids, func(i, j int) bool { return false }) // keep paper order
	for _, id := range ids {
		s := spec
		s.Exp = id
		if err := Generate(ctx, s, w, opts); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
