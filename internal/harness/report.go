package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
)

// Options is the execution policy: *how* a Spec runs. What to run —
// workloads, runs, site caps, the experiment id — lives in the Spec;
// nothing set here can change the plan or its fingerprint, so a worker
// process and the coordinator that spawned it can hold different Options
// while sharing one Spec. Every entry point that executes trials — Start,
// ShardPayload, Generate and its sharded, merged and journaled forms, the
// coordinator's workers — takes an Options, and Apply is the one place
// it reaches a Runner.
type Options struct {
	// Parallel is the worker count trials fan out across (0 = 1 =
	// serial). Output is byte-identical at any count.
	Parallel int
	// Reference runs campaign and overhead trials on the tree-walking
	// reference interpreter instead of compiled module bytecode.
	// Concurrent groups always run compiled. Output is byte-identical
	// either way; the switch keeps the walker available as the oracle
	// for differential tests and reference benchmarks.
	Reference bool
	// Shard restricts a Session to one shard of the Spec's canonical
	// plan. Campaign, overhead and concurrent sessions then carry the
	// shard's partial; experiment sessions write an ExperimentPartial to
	// the report writer. ShardPayload and GenerateSharded take the shard
	// as an argument instead. The zero value is the whole plan.
	Shard ShardSpec
	// Events, when non-nil, receives the engine's typed event stream
	// (TrialDone, Progress, ShardMerged) synchronously; a Session also
	// queues it for Session.Events.
	Events func(Event)
	// Runner, when non-nil, executes the experiments instead of a fresh
	// NewRunner per generator invocation. A persistent worker serving
	// several shard assignments sets this so base modules and goldens
	// stay warm across assignments.
	Runner *Runner

	// reroute, when set, replaces running one campaign or overhead
	// sub-plan of an experiment: it is how GenerateSharded,
	// GenerateMerged and GenerateJournaled run the generators' sub-plans
	// as partial runs, merges or journaled spans without the generators
	// knowing.
	reroute func(ctx context.Context, r *Runner, spec Spec) (Result, error)
}

// Apply sets the options' execution policy on their Runner — a fresh
// NewRunner when Runner is nil — and returns it.
func (o Options) Apply() *Runner {
	r := o.Runner
	if r == nil {
		r = NewRunner()
	}
	r.parallel = o.Parallel
	if r.parallel == 0 {
		r.parallel = 1
	}
	r.compile = !o.Reference
	r.shard = o.Shard
	r.Events = o.Events
	return r
}

// sub runs (or reroutes) one campaign or overhead sub-plan of an
// experiment.
func (o Options) sub(ctx context.Context, r *Runner, spec Spec) (Result, error) {
	if o.reroute != nil {
		return o.reroute(ctx, r, spec)
	}
	return r.runWhole(ctx, spec, "", "Generate")
}

// campaignSpec derives the generator's campaign sub-Spec from the
// normalized experiment Spec.
func campaignSpec(exp Spec, kind faultinject.Kind, variants []Variant) Spec {
	s := exp.derive(SpecCampaign, variants)
	s.Inject = kind.String()
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
	if opts.reroute == nil && !opts.Shard.IsZero() {
		return fmt.Errorf("harness: Generate with Shard %s: a shard renders no report; use GenerateSharded and GenerateMerged", opts.Shard)
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
	// The Figure 3.16 ablation: naive temporal checking vs. the
	// periodicity-exploiting gate.
	g["fig3.16"] = overheadGen("Figure 3.16: Exploiting periodicity to improve temporal load-checking overhead (SDS, ×golden)",
		func() []Variant {
			return []Variant{
				Stdapp(),
				NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
				NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf),
				NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.PeriodicLoadChecking{Period: 2}),
			}
		}, labelPolicy)
	g["tab3.4"] = latencyGen("Table 3.4: Mean time to detection of state comparison policies (SDS, ms)",
		dpmr.SDS, PolicyVariants, labelPolicy)

	// Chapter 4 (MDS).
	g["fig4.3"] = sideBySideGen("Figure 4.3: Side-by-side diversity transformation overheads of SDS and MDS (×golden)",
		func(design dpmr.Design) []Variant {
			var vs []Variant
			for _, d := range []dpmr.Diversity{dpmr.NoDiversity{}, dpmr.ZeroBeforeFree{}, dpmr.RearrangeHeap{}, dpmr.PadMalloc{Pad: 32}} {
				vs = append(vs, NewVariant(design, d, dpmr.AllLoads{}))
			}
			return vs
		}, labelDiversity)
	// Static policies plus all-loads; temporal is excluded as in the
	// paper (§4.5).
	g["fig4.4"] = sideBySideGen("Figure 4.4: Side-by-side comparison policy overheads of SDS and MDS (rearrange-heap, ×golden)",
		func(design dpmr.Design) []Variant {
			var vs []Variant
			for _, p := range []dpmr.Policy{dpmr.StaticLoadChecking{Percent: 10}, dpmr.StaticLoadChecking{Percent: 50},
				dpmr.StaticLoadChecking{Percent: 90}, dpmr.AllLoads{}} {
				vs = append(vs, NewVariant(design, dpmr.RearrangeHeap{}, p))
			}
			return vs
		}, labelPolicy)
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
		res, err := opts.sub(ctx, opts.Apply(), campaignSpec(spec, kind, variantsOf(design)))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		if conditional {
			renderConditional(w, res.Campaign(), lbl)
		} else {
			renderCoverage(w, res.Campaign(), lbl)
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
		res, err := opts.sub(ctx, opts.Apply(), spec.derive(SpecOverhead, variantsOf()))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		renderOverhead(w, res.overhead(), lbl)
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
		r := opts.Apply()
		fmt.Fprintln(w, title)
		for _, kind := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
			res, err := opts.sub(ctx, r, campaignSpec(spec, kind, variantsOf(design)))
			if err != nil {
				return err
			}
			cr := res.Campaign()
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

// sideBySideGen renders the SDS and MDS overheads of one variant set in
// interleaved rows.
func sideBySideGen(title string, variantsOf func(dpmr.Design) []Variant, lbl labelFunc) genFunc {
	return func(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
		fmt.Fprintln(w, title)
		r := opts.Apply()
		sdsRes, err := opts.sub(ctx, r, spec.derive(SpecOverhead, variantsOf(dpmr.SDS)))
		if err != nil {
			return err
		}
		mdsRes, err := opts.sub(ctx, r, spec.derive(SpecOverhead, variantsOf(dpmr.MDS)))
		if err != nil {
			return err
		}
		sds, mds := sdsRes.overhead(), mdsRes.overhead()
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

// subPlans lists the experiment partial's sub-plan partials by plan
// kind, each in execution order.
func (ep *ExperimentPartial) subPlans() map[SpecKind][]partial {
	return map[SpecKind][]partial{SpecCampaign: asPartials(ep.Campaigns), SpecOverhead: asPartials(ep.Overheads)}
}

// add files one sub-plan's partial, in execution order.
func (ep *ExperimentPartial) add(p partial) {
	switch p := p.(type) {
	case *PartialResult:
		ep.Campaigns = append(ep.Campaigns, p)
	case *OverheadPartial:
		ep.Overheads = append(ep.Overheads, p)
	}
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
	for _, p := range append(asPartials(ep.Campaigns), asPartials(ep.Overheads)...) {
		if err := p.check(); err != nil {
			return nil, fmt.Errorf("harness: experiment partial %s: %w", ep.Exp, err)
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
	opts.Shard = shard
	opts.reroute = func(ctx context.Context, r *Runner, sub Spec) (Result, error) {
		pl, p, err := r.runShard(ctx, sub, "", "GenerateSharded")
		if err != nil {
			return Result{}, err
		}
		ep.add(p)
		// Rendering goes to io.Discard; a structurally complete stand-in
		// (all cells present, zero-valued) keeps the generator's render
		// path happy without running the other shards' trials.
		return pl.result(), nil
	}
	if err := Generate(ctx, n, io.Discard, opts); err != nil {
		return err
	}
	if len(ep.Campaigns) == 0 && len(ep.Overheads) == 0 {
		return fmt.Errorf("harness: experiment %s runs no campaign or overhead measurement; nothing to shard", n.Exp)
	}
	return encodePartial(out, ep)
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
		eps[i] = ep
	}
	spec.Exp = id
	// shelves[kind][i] gathers every shard's partial of the experiment's
	// i-th sub-plan of that kind.
	shelves := make(map[SpecKind][][]partial)
	for i, ep := range eps {
		for k, parts := range ep.subPlans() {
			if i == 0 {
				shelves[k] = make([][]partial, len(parts))
			} else if len(parts) != len(shelves[k]) {
				return fmt.Errorf("harness: GenerateMerged: partial %d holds %d %s plans, partial 0 holds %d", i, len(parts), k, len(shelves[k]))
			}
			for si, p := range parts {
				shelves[k][si] = append(shelves[k][si], p)
			}
		}
	}
	merged := make(map[SpecKind]int)
	opts.reroute = func(_ context.Context, r *Runner, sub Spec) (Result, error) {
		shelf, i := shelves[sub.Kind], merged[sub.Kind]
		if i >= len(shelf) {
			return Result{}, fmt.Errorf("harness: experiment %s runs more than the %d %s plans the partials hold", id, len(shelf), sub.Kind)
		}
		merged[sub.Kind]++
		pl, err := r.plan(sub, "", "GenerateMerged")
		if err != nil {
			return Result{}, err
		}
		return pl.merge(r, shelf[i], "GenerateMerged")
	}
	if err := Generate(ctx, spec, out, opts); err != nil {
		return err
	}
	for _, k := range []SpecKind{SpecCampaign, SpecOverhead} {
		if merged[k] != len(shelves[k]) {
			return fmt.Errorf("harness: partials hold %d %s plans but experiment %s ran only %d", len(shelves[k]), k, id, merged[k])
		}
	}
	return nil
}

// GenerateAll regenerates every experiment in order, using spec (whose
// Exp field is overridden per experiment) for the shared declarative
// parameters.
func GenerateAll(ctx context.Context, spec Spec, w io.Writer, opts Options) error {
	for _, id := range ExperimentIDs() {
		s := spec
		s.Exp = id
		if err := Generate(ctx, s, w, opts); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
