package harness

// Spec is the declarative experiment layer: one serializable value that
// says *what* to run — the paper's experiment tuple (W, C, D, I, RN)
// plus the experiment kind — separated from *how* it runs (worker
// counts, reference interpreter, sharding: the Options). A
// Spec is the single input to plan construction and the sole source of
// the SHA-256 plan fingerprint, so two processes holding the
// same Spec compute the same plan, the same trial ranges, and the same
// fingerprint — which is what lets shards, coordinator assignments, and
// -spec files all name an experiment without re-deriving state from
// command lines.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/mem"
	"dpmr/internal/workloads"
)

// SpecKind selects what a Spec describes.
type SpecKind string

// The four experiment kinds.
const (
	// SpecCampaign is a fault-injection campaign: the sites × variants ×
	// runs grid of one injection kind.
	SpecCampaign SpecKind = "campaign"
	// SpecOverhead is an overhead measurement: golden plus one run per
	// DPMR variant, no injections.
	SpecOverhead SpecKind = "overhead"
	// SpecExperiment is a named figure/table of the paper (fig3.7,
	// tab4.6, …), which may run several campaigns and measurements.
	SpecExperiment SpecKind = "experiment"
	// SpecConcurrent is a concurrent-workload campaign: the workloads ×
	// variants × runs grid under the deterministic interleaving
	// scheduler, with trace-checked consistency as an extra detection
	// axis and the schedule seed varied per run instead of a fault kind.
	SpecConcurrent SpecKind = "concurrent"
)

// VariantSpec is the serializable form of a Variant: the design,
// diversity, and policy by their paper names. The zero value is stdapp.
type VariantSpec struct {
	DPMR      bool   `json:"dpmr,omitempty"`
	Design    string `json:"design,omitempty"`    // "sds" or "mds"
	Diversity string `json:"diversity,omitempty"` // dpmr.Diversity name
	Policy    string `json:"policy,omitempty"`    // dpmr.Policy name
}

// Variant resolves the names back to an executable Variant.
func (vs VariantSpec) Variant() (Variant, error) {
	if !vs.DPMR {
		return Stdapp(), nil
	}
	var d dpmr.Design
	switch vs.Design {
	case "sds", "":
		d = dpmr.SDS
	case "mds":
		d = dpmr.MDS
	default:
		return Variant{}, fmt.Errorf("harness: unknown design %q: want sds or mds", vs.Design)
	}
	div, err := dpmr.DiversityByName(vs.Diversity)
	if err != nil {
		return Variant{}, err
	}
	pol, err := dpmr.PolicyByName(vs.Policy)
	if err != nil {
		return Variant{}, err
	}
	return NewVariant(d, div, pol), nil
}

// VariantSpecOf is the inverse of VariantSpec.Variant: the canonical
// serializable name of v.
func VariantSpecOf(v Variant) VariantSpec {
	if !v.DPMR {
		return VariantSpec{}
	}
	return VariantSpec{
		DPMR:      true,
		Design:    v.Design.String(),
		Diversity: v.Diversity.Name(),
		Policy:    v.Policy.Name(),
	}
}

// VariantSpecs maps a variant list to its serializable form.
func VariantSpecs(vs ...Variant) []VariantSpec {
	out := make([]VariantSpec, len(vs))
	for i, v := range vs {
		out[i] = VariantSpecOf(v)
	}
	return out
}

// Spec declaratively describes one experiment. Field applicability by
// Kind:
//
//   - campaign:   Workloads, Variants, Inject, Runs, MaxSites,
//     TimeoutFactor, Mem
//   - overhead:   Workloads, Variants, TimeoutFactor, Mem
//   - experiment: Exp (the figure/table id), plus Quick/Runs/MaxSites/
//     Workloads overriding the generator's defaults
//   - concurrent: Workloads (concurrent set), Variants, Runs, Threads,
//     SchedSeed, TimeoutFactor, Mem
//
// The zero value is not runnable; Normalized fills defaults and
// validates. Specs marshal to JSON (the CLI -spec file format) and the
// canonical JSON of the normalized Spec is what plan fingerprints hash.
type Spec struct {
	Kind      SpecKind      `json:"kind"`
	Exp       string        `json:"exp,omitempty"`
	Workloads []string      `json:"workloads,omitempty"`
	Variants  []VariantSpec `json:"variants,omitempty"`
	// Inject names the fault kind of a campaign
	// ("heap-array-resize", "immediate-free").
	Inject string `json:"inject,omitempty"`
	// Runs per (W, C, D, I) tuple (0 = default 2; 1 in quick mode; at
	// most MaxRuns).
	Runs int `json:"runs,omitempty"`
	// MaxSites caps injection sites per workload (0 = all).
	MaxSites int `json:"maxSites,omitempty"`
	// Threads is the VM count of a concurrent group (0 = default 3, at
	// most MaxThreads).
	Threads int `json:"threads,omitempty"`
	// SchedSeed is the base interleaving seed of a concurrent campaign;
	// run rn explores schedule SchedSeed+rn (0 = default 1).
	SchedSeed int64 `json:"schedSeed,omitempty"`
	// TimeoutFactor multiplies golden steps into the step budget
	// (0 = default 20, at most MaxTimeoutFactor).
	TimeoutFactor uint64 `json:"timeoutFactor,omitempty"`
	// Quick restricts an experiment to two workloads, few sites, and one
	// run for smoke passes. Normalization resolves it into explicit
	// Workloads/Runs/MaxSites values.
	Quick bool `json:"quick,omitempty"`
	// Mem sizes experiment address spaces (zero = the harness defaults;
	// otherwise every size 1..MaxMemBytes).
	Mem mem.Config `json:"mem"`
}

// CampaignSpec describes the injection campaign (kind, ws, vs) with the
// paper-default runs/timeout/memory; adjust fields on the result as
// needed.
func CampaignSpec(kind faultinject.Kind, ws []workloads.Workload, vs []Variant) Spec {
	return Spec{
		Kind:      SpecCampaign,
		Workloads: workloadNames(ws),
		Variants:  VariantSpecs(vs...),
		Inject:    kind.String(),
	}
}

// OverheadSpec describes the overhead measurement of the variant grid.
func OverheadSpec(ws []workloads.Workload, vs []Variant) Spec {
	return Spec{Kind: SpecOverhead, Workloads: workloadNames(ws), Variants: VariantSpecs(vs...)}
}

// ExperimentSpec describes the named figure/table.
func ExperimentSpec(id string) Spec { return Spec{Kind: SpecExperiment, Exp: id} }

// ConcurrentSpec describes the concurrent campaign of the named
// concurrent workloads over the variant grid, with the default thread
// count and schedule seed; adjust fields on the result as needed.
func ConcurrentSpec(names []string, vs []Variant) Spec {
	return Spec{Kind: SpecConcurrent, Workloads: names, Variants: VariantSpecs(vs...)}
}

func workloadNames(ws []workloads.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// defaultMem is the paper-testbed address-space geometry every
// experiment runs under unless the Spec says otherwise.
func defaultMem() mem.Config {
	return mem.Config{
		HeapBytes:   4 * 1024 * 1024,
		StackBytes:  256 * 1024,
		GlobalBytes: 64 * 1024,
	}
}

// parseInject resolves a fault-kind name (faultinject.Kind.String form).
func parseInject(name string) (faultinject.Kind, error) {
	switch name {
	case "heap-array-resize":
		return faultinject.HeapArrayResize, nil
	case "immediate-free":
		return faultinject.ImmediateFree, nil
	default:
		return 0, fmt.Errorf("harness: unknown injection %q: want heap-array-resize or immediate-free", name)
	}
}

// MaxTimeoutFactor is the largest TimeoutFactor a Spec may carry. A
// trial's step budget is golden steps × TimeoutFactor × 5, so a larger
// factor buys a hung trial hours of a worker's time, and one large
// enough to wrap the product would turn the budget into no limit at all.
const MaxTimeoutFactor = 10_000

// ErrTimeoutFactor refuses a Spec whose TimeoutFactor exceeds
// MaxTimeoutFactor.
var ErrTimeoutFactor = errors.New("harness: timeoutFactor above MaxTimeoutFactor")

// Upper bounds on the rest of what one Spec may ask for. Each sits far
// above every experiment of the paper and the benchmark; each keeps a
// single Spec from the network from costing a worker or the daemon its
// memory before any trial runs. Normalized refuses a Spec past any of
// them with the matching named error.
const (
	// MaxRuns bounds Runs, the runs per (W, C, D, I) tuple.
	MaxRuns = 10_000
	// MaxThreads bounds Threads, the VM count of a concurrent group.
	MaxThreads = 64
	// MaxMemBytes bounds each size in Mem. Every trial's address space
	// is allocated eagerly at the sum of the three.
	MaxMemBytes = 256 << 20
	// MaxPlannedTrials bounds the trials of one plan: workloads ×
	// variants × runs, and for a campaign × injection sites.
	MaxPlannedTrials = 1 << 20
)

// Named refusals of a Spec past one of the bounds above.
var (
	ErrRuns          = errors.New("harness: runs above MaxRuns")
	ErrThreads       = errors.New("harness: threads above MaxThreads")
	ErrMemBytes      = errors.New("harness: mem size outside 1..MaxMemBytes")
	ErrPlannedTrials = errors.New("harness: planned trials above MaxPlannedTrials")
)

// checkPlanned refuses a plan of more than MaxPlannedTrials trials.
func checkPlanned(trials uint64) error {
	if trials > MaxPlannedTrials {
		return fmt.Errorf("%w: %d > %d", ErrPlannedTrials, trials, MaxPlannedTrials)
	}
	return nil
}

// satMul multiplies, saturating at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// dpmrVariants counts the Spec's DPMR variants: a campaign or overhead
// plan gives each its own trials, while stdapp's rows cover the others.
func (s Spec) dpmrVariants() uint64 {
	n := uint64(0)
	for _, v := range s.Variants {
		if v.DPMR {
			n++
		}
	}
	return n
}

// plannedLowerBound is the trial count of the normalized Spec's plan
// with one injection site per workload: exact for overhead and
// concurrent Specs, and a lower bound for a campaign (planCampaign checks
// the exact count once its sites are enumerated) and for an experiment's
// campaigns.
func (s Spec) plannedLowerBound() uint64 {
	w, runs := uint64(len(s.Workloads)), uint64(s.Runs)
	switch s.Kind {
	case SpecCampaign:
		return satMul(satMul(w, runs), 1+s.dpmrVariants())
	case SpecOverhead:
		return satMul(w, 1+s.dpmrVariants())
	case SpecConcurrent:
		return satMul(satMul(w, runs), uint64(len(s.Variants)))
	}
	return satMul(w, runs)
}

// stepBudget is the step limit of a trial whose golden run took
// goldenSteps steps: goldenSteps × factor × 5, saturating at
// math.MaxUint64 rather than wrapping, since a wrapped product could land
// on 0, which interp reads as no limit.
func stepBudget(goldenSteps, factor uint64) uint64 {
	return satMul(satMul(goldenSteps, factor), 5)
}

// Normalized validates the Spec and returns its canonical form: defaults
// filled (runs, timeout factor, memory geometry, the quick-mode workload
// and site caps resolved into explicit values), variant names resolved
// to their canonical spellings, and kind-inapplicable fields cleared.
// Equal experiments normalize to byte-identical canonical JSON, which is
// what makes Fingerprint (and the plan fingerprints embedding it) stable
// across flag spellings, JSON round trips, and processes. A Spec past
// MaxTimeoutFactor, MaxRuns, MaxThreads, MaxMemBytes or MaxPlannedTrials
// is refused with the bound's named error.
func (s Spec) Normalized() (Spec, error) {
	n := s
	if n.TimeoutFactor == 0 {
		n.TimeoutFactor = 20
	}
	if n.TimeoutFactor > MaxTimeoutFactor {
		return Spec{}, fmt.Errorf("%w: %d > %d", ErrTimeoutFactor, n.TimeoutFactor, MaxTimeoutFactor)
	}
	// Non-positive counts mean "default"/"uncapped" in every spelling;
	// fold them to the canonical zero here so they cannot leak into the
	// canonical JSON and split the fingerprints of equal experiments.
	if n.Runs < 0 {
		n.Runs = 0
	}
	if n.MaxSites < 0 {
		n.MaxSites = 0
	}
	if n.Threads < 0 {
		n.Threads = 0
	}
	if n.Runs > MaxRuns {
		return Spec{}, fmt.Errorf("%w: %d > %d", ErrRuns, n.Runs, MaxRuns)
	}
	if n.Threads > MaxThreads {
		return Spec{}, fmt.Errorf("%w: %d > %d", ErrThreads, n.Threads, MaxThreads)
	}
	if (n.Mem == mem.Config{}) {
		n.Mem = defaultMem()
	}
	for _, f := range []struct {
		name string
		size int
	}{{"GlobalBytes", n.Mem.GlobalBytes}, {"HeapBytes", n.Mem.HeapBytes}, {"StackBytes", n.Mem.StackBytes}} {
		if f.size <= 0 || f.size > MaxMemBytes {
			return Spec{}, fmt.Errorf("%w: mem.%s = %d", ErrMemBytes, f.name, f.size)
		}
	}
	canonVariants := func() error {
		if len(n.Variants) == 0 {
			return fmt.Errorf("harness: %s spec: no variants", n.Kind)
		}
		vs := make([]VariantSpec, len(n.Variants))
		for i, v := range n.Variants {
			rv, err := v.Variant()
			if err != nil {
				return err
			}
			vs[i] = VariantSpecOf(rv)
		}
		n.Variants = vs
		return nil
	}
	// checkWorkloads resolves every workload name, sequential ones by
	// default and concurrent groups with concurrent set.
	checkWorkloads := func(concurrent bool) error {
		if len(n.Workloads) == 0 {
			return fmt.Errorf("harness: %s spec: no workloads", n.Kind)
		}
		for _, name := range n.Workloads {
			var err error
			if concurrent {
				_, err = workloads.ConcurrentByName(name)
			} else {
				_, err = workloads.ByName(name)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	switch n.Kind {
	case SpecCampaign:
		// Threads and SchedSeed are concurrent-kind knobs: cleared here so
		// two spellings of one campaign cannot fingerprint apart.
		n.Exp, n.Quick, n.Threads, n.SchedSeed = "", false, 0, 0
		if n.Runs <= 0 {
			n.Runs = 2
		}
		if _, err := parseInject(n.Inject); err != nil {
			return Spec{}, err
		}
		if err := checkWorkloads(false); err != nil {
			return Spec{}, err
		}
		if err := canonVariants(); err != nil {
			return Spec{}, err
		}
	case SpecOverhead:
		// The overhead plan measures each variant exactly once — Runs is
		// kind-inapplicable and cleared, so two spellings of one
		// measurement cannot fingerprint apart; the concurrency knobs are
		// cleared for the same reason.
		n.Exp, n.Quick, n.Inject, n.MaxSites, n.Runs = "", false, "", 0, 0
		n.Threads, n.SchedSeed = 0, 0
		if err := checkWorkloads(false); err != nil {
			return Spec{}, err
		}
		if err := canonVariants(); err != nil {
			return Spec{}, err
		}
	case SpecExperiment:
		// The figure/table id is resolved by Generate at run time (so an
		// id-less merge Spec can take the id from its partials); variants
		// and injection kinds are the generator's business, and the
		// concurrency knobs apply only to the concurrent kind.
		n.Variants, n.Inject = nil, ""
		n.Threads, n.SchedSeed = 0, 0
		if n.Quick {
			if n.Runs == 0 {
				n.Runs = 1
			}
			if n.MaxSites == 0 {
				n.MaxSites = 3
			}
			if len(n.Workloads) == 0 {
				n.Workloads = workloadNames(workloads.All()[:2])
			}
			n.Quick = false
		} else {
			if n.Runs == 0 {
				n.Runs = 2
			}
			if len(n.Workloads) == 0 {
				n.Workloads = workloadNames(workloads.All())
			}
		}
		if err := checkWorkloads(false); err != nil {
			return Spec{}, err
		}
	case SpecConcurrent:
		n.Exp, n.Quick, n.Inject, n.MaxSites = "", false, "", 0
		if n.Runs <= 0 {
			n.Runs = 2
		}
		if n.Threads == 0 {
			n.Threads = 3
		}
		if n.SchedSeed == 0 {
			n.SchedSeed = 1
		}
		if err := checkWorkloads(true); err != nil {
			return Spec{}, err
		}
		if err := canonVariants(); err != nil {
			return Spec{}, err
		}
	default:
		return Spec{}, fmt.Errorf("harness: spec kind %q: want campaign, overhead, experiment, or concurrent", n.Kind)
	}
	if err := checkPlanned(n.plannedLowerBound()); err != nil {
		return Spec{}, err
	}
	return n, nil
}

// normalizedAs normalizes and additionally requires the given kind
// unless it is empty — the guard every kind-specific entry point
// (RunCampaign, RunOverhead, Generate) uses so a Spec cannot be silently
// run as the wrong thing.
func (s Spec) normalizedAs(kind SpecKind, what string) (Spec, error) {
	n, err := s.Normalized()
	if err != nil {
		return Spec{}, err
	}
	if kind != "" && n.Kind != kind {
		return Spec{}, fmt.Errorf("harness: %s needs a %s spec, got kind %q", what, kind, n.Kind)
	}
	return n, nil
}

// kind returns a fresh pipeline for the Spec's plan kind, or nil for an
// experiment Spec, which runs several plans.
func (s Spec) kind() kind {
	switch s.Kind {
	case SpecCampaign:
		return &campaignKind{}
	case SpecOverhead:
		return &overheadKind{}
	case SpecConcurrent:
		return &concurrentKind{}
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the normalized Spec —
// the bytes Fingerprint hashes and plan fingerprints embed.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Fingerprint is the SHA-256 of the Spec's canonical JSON: a stable
// identity for "the same experiment", invariant under flag-vs-file
// construction, JSON round trips, and alias spellings of variant names.
// Plan fingerprints embed the canonical JSON, so an unchanged Spec
// fingerprint implies unchanged plan fingerprints.
func (s Spec) Fingerprint() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// resolveWorkloads maps the normalized Spec's workload names back to
// their builders.
func (s Spec) resolveWorkloads() ([]workloads.Workload, error) {
	ws := make([]workloads.Workload, len(s.Workloads))
	for i, name := range s.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// resolveVariants maps the normalized Spec's variant specs back to
// executable Variants.
func (s Spec) resolveVariants() ([]Variant, error) {
	vs := make([]Variant, len(s.Variants))
	for i, v := range s.Variants {
		rv, err := v.Variant()
		if err != nil {
			return nil, err
		}
		vs[i] = rv
	}
	return vs, nil
}

// derive builds a kind sub-Spec of an experiment Spec over the given
// variants: the generator's campaigns and measurements inherit the
// experiment's workload set, runs, site cap, timeout factor, and memory
// geometry, so the sub-plans (and their fingerprints) are a pure
// function of the experiment Spec.
func (s Spec) derive(kind SpecKind, variants []Variant) Spec {
	d := Spec{
		Kind:          kind,
		Workloads:     s.Workloads,
		Variants:      VariantSpecs(variants...),
		Runs:          s.Runs,
		TimeoutFactor: s.TimeoutFactor,
		Mem:           s.Mem,
	}
	if kind == SpecCampaign {
		d.MaxSites = s.MaxSites
	}
	return d
}

// DecodeSpec reads a JSON Spec and normalizes it. Malformed or invalid
// input errors, never panics.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("harness: decoding spec: %w", err)
	}
	return s.Normalized()
}

// LoadSpec reads a Spec from a JSON file (the CLI -spec flag).
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("harness: loading spec: %w", err)
	}
	defer f.Close()
	s, err := DecodeSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("harness: spec %s: %w", path, err)
	}
	return s, nil
}

// Encode writes the Spec's canonical JSON followed by a newline — the
// -spec file format.
func (s Spec) Encode(w io.Writer) error {
	c, err := s.Canonical()
	if err != nil {
		return err
	}
	if _, err := w.Write(append(c, '\n')); err != nil {
		return fmt.Errorf("harness: encoding spec: %w", err)
	}
	return nil
}

// ParseSpecFlags resolves a CLI's declarative inputs to one Spec: either
// the Spec the CLI assembled from its own what-flags (base), or the
// contents of a -spec file — never a silent mix. specFile is the -spec
// flag's value ("" = flags only); whatFlags names the CLI's declarative
// flags, and explicitly setting any of them alongside -spec is a usage
// error (the file is the single source of truth, and merging the two
// would make the effective experiment depend on flag defaults the file
// never saw). The returned Spec is normalized.
func ParseSpecFlags(fs *flag.FlagSet, specFile string, base Spec, whatFlags ...string) (Spec, error) {
	if specFile == "" {
		return base.Normalized()
	}
	var conflict []string
	fs.Visit(func(f *flag.Flag) {
		for _, name := range whatFlags {
			if f.Name == name {
				conflict = append(conflict, "-"+name)
			}
		}
	})
	if len(conflict) > 0 {
		return Spec{}, fmt.Errorf("-spec and %s are mutually exclusive: the spec file is the single source of the experiment description", strings.Join(conflict, ", "))
	}
	return LoadSpec(specFile)
}

// VariantFlags is the -design/-diversity/-policy flag family dpmr-run
// and dpmrc share: one registration, one resolution, no per-binary
// drift in names, defaults, or error text.
type VariantFlags struct {
	Design    string
	Diversity string
	Policy    string
}

// Register declares the family on fs with the shared defaults.
func (f *VariantFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Design, "design", "sds", "DPMR design: sds or mds")
	fs.StringVar(&f.Diversity, "diversity", "no-diversity", "diversity transformation")
	fs.StringVar(&f.Policy, "policy", "all loads", "state comparison policy")
}

// Spec returns the flags as a DPMR VariantSpec (unresolved names).
func (f *VariantFlags) Spec() VariantSpec {
	return VariantSpec{DPMR: true, Design: f.Design, Diversity: f.Diversity, Policy: f.Policy}
}

// Variant resolves the flags, rejecting unknown names.
func (f *VariantFlags) Variant() (Variant, error) {
	return f.Spec().Variant()
}
