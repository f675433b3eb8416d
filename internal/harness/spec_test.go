package harness

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/workloads"
)

// TestSpecRoundTripKeepsFingerprint is the Spec identity contract:
// flags → Spec → JSON → Spec preserves the canonical form, the Spec
// fingerprint, and therefore the plan fingerprint — so a -spec file, a
// flag-driven run, and a coordinator assignment all name the same
// experiment.
func TestSpecRoundTripKeepsFingerprint(t *testing.T) {
	specs := map[string]Spec{
		"campaign":   smallCampaign(),
		"overhead":   func() Spec { ws, vs := smallOverhead(); return OverheadSpec(ws, vs) }(),
		"experiment": quickExp("fig3.7"),
		"exp-full":   ExperimentSpec("tab3.3"),
		"concurrent": smallConcurrent(),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			fp1, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := spec.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSpec(&buf)
			if err != nil {
				t.Fatal(err)
			}
			fp2, err := decoded.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp1 != fp2 {
				t.Errorf("fingerprint changed across JSON round trip: %s vs %s", fp1, fp2)
			}
			// A second round trip is a fixed point: the normalized form
			// re-encodes to identical bytes.
			c1, _ := spec.Canonical()
			c2, _ := decoded.Canonical()
			if !bytes.Equal(c1, c2) {
				t.Errorf("canonical JSON changed across round trip:\n%s\nvs\n%s", c1, c2)
			}
		})
	}
}

// TestSpecFingerprintSeparatesExperiments: distinct experiments have
// distinct fingerprints; equal experiments spelled differently (defaults
// explicit vs. omitted) have equal fingerprints.
func TestSpecFingerprintSeparatesExperiments(t *testing.T) {
	base := smallCampaign()
	fp := func(s Spec) string {
		t.Helper()
		f, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	same := base
	same.Runs = 2           // the default, now explicit
	same.TimeoutFactor = 20 // the default, now explicit
	if fp(base) != fp(same) {
		t.Error("explicit defaults changed the fingerprint")
	}
	for name, mutate := range map[string]func(*Spec){
		"runs":     func(s *Spec) { s.Runs = 3 },
		"sites":    func(s *Spec) { s.MaxSites = 1 },
		"inject":   func(s *Spec) { s.Inject = faultinject.HeapArrayResize.String() },
		"workload": func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"variants": func(s *Spec) { s.Variants = s.Variants[:2] },
		"timeout":  func(s *Spec) { s.TimeoutFactor = 10 },
	} {
		other := base
		mutate(&other)
		if fp(base) == fp(other) {
			t.Errorf("%s: a different experiment fingerprints equal", name)
		}
	}
}

// TestSpecNormalizeRejects covers validation: unknown kinds, workloads,
// variants, and injections error — never run, never panic.
func TestSpecNormalizeRejects(t *testing.T) {
	ws := workloads.All()[:1]
	cases := map[string]Spec{
		"unknown kind":     {Kind: "banana"},
		"empty kind":       {},
		"no workloads":     {Kind: SpecCampaign, Inject: "immediate-free", Variants: []VariantSpec{{}}},
		"unknown workload": {Kind: SpecCampaign, Inject: "immediate-free", Workloads: []string{"nope"}, Variants: []VariantSpec{{}}},
		"no variants":      {Kind: SpecCampaign, Inject: "immediate-free", Workloads: []string{ws[0].Name}},
		"unknown inject":   {Kind: SpecCampaign, Inject: "rowhammer", Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{}}},
		"no inject":        {Kind: SpecCampaign, Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{}}},
		"bad design":       {Kind: SpecOverhead, Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{DPMR: true, Design: "tds"}}},
		"bad diversity":    {Kind: SpecOverhead, Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{DPMR: true, Diversity: "nope"}}},
		"bad policy":       {Kind: SpecOverhead, Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{DPMR: true, Policy: "nope"}}},
		"exp bad workload": {Kind: SpecExperiment, Exp: "fig3.7", Workloads: []string{"nope"}},
		// Concurrent specs take the concurrent workload set only; a
		// sequential workload name (or none, or no variants) is refused.
		"conc no workloads": {Kind: SpecConcurrent, Variants: []VariantSpec{{}}},
		"conc seq workload": {Kind: SpecConcurrent, Workloads: []string{ws[0].Name}, Variants: []VariantSpec{{}}},
		"conc bad workload": {Kind: SpecConcurrent, Workloads: []string{"nope"}, Variants: []VariantSpec{{}}},
		"conc no variants":  {Kind: SpecConcurrent, Workloads: []string{"chash"}},
		"conc bad variant":  {Kind: SpecConcurrent, Workloads: []string{"chash"}, Variants: []VariantSpec{{DPMR: true, Design: "tds"}}},
	}
	for name, spec := range cases {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpecTimeoutFactorBound: Normalized fills the default factor, keeps
// every factor up to MaxTimeoutFactor, and refuses a larger one with
// ErrTimeoutFactor, for both kinds whose trials run under a step budget.
func TestSpecTimeoutFactorBound(t *testing.T) {
	cases := []struct {
		factor, want uint64
		err          error
	}{
		{0, 20, nil},
		{MaxTimeoutFactor, MaxTimeoutFactor, nil},
		{MaxTimeoutFactor + 1, 0, ErrTimeoutFactor},
		{math.MaxUint64, 0, ErrTimeoutFactor},
	}
	for kind, base := range map[string]Spec{"campaign": smallCampaign(), "concurrent": smallConcurrent()} {
		for _, c := range cases {
			spec := base
			spec.TimeoutFactor = c.factor
			n, err := spec.Normalized()
			if !errors.Is(err, c.err) {
				t.Errorf("%s factor %d: err %v, want %v", kind, c.factor, err, c.err)
				continue
			}
			if err == nil && n.TimeoutFactor != c.want {
				t.Errorf("%s factor %d: normalized to %d, want %d", kind, c.factor, n.TimeoutFactor, c.want)
			}
		}
	}
}

// TestStepBudgetSaturates: the trial step budget is golden × factor × 5
// while that fits in 64 bits and math.MaxUint64 beyond, never a wrapped
// product, and in particular never 0, the value interp reads as no
// limit.
func TestStepBudgetSaturates(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct{ golden, factor, want uint64 }{
		{142_125, 20, 14_212_500},
		{1, MaxTimeoutFactor, 5 * MaxTimeoutFactor},
		{max / 5, 1, max / 5 * 5},
		{max/5 + 1, 1, max},
		{2, 1 << 63, max}, // golden × factor wraps to exactly 0
		{1 << 62, 4, max},
		{1, max, max},
		{max, max, max},
	}
	for _, c := range cases {
		if got := stepBudget(c.golden, c.factor); got != c.want {
			t.Errorf("stepBudget(%d, %d) = %d, want %d", c.golden, c.factor, got, c.want)
		}
	}
}

// TestVariantSpecRoundTrip: every variant of the full differential
// surface survives Variant → VariantSpec → Variant with its label (the
// result-map key) intact.
func TestVariantSpecRoundTrip(t *testing.T) {
	for _, v := range differentialVariants() {
		vs := VariantSpecOf(v)
		back, err := vs.Variant()
		if err != nil {
			t.Fatalf("%s: %v", v.Label(), err)
		}
		if back.Label() != v.Label() {
			t.Errorf("variant label changed across round trip: %q vs %q", v.Label(), back.Label())
		}
	}
}

// TestDecodeSpecRejectsMalformed: the -spec file decoder refuses bad
// JSON, unknown fields (typo protection), and invalid contents.
func TestDecodeSpecRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"unknown field": `{"kind":"campaign","workloadz":["mcf"]}`,
		"bad kind":      `{"kind":"banana"}`,
		"invalid":       `{"kind":"campaign"}`,
	}
	for name, text := range cases {
		if _, err := DecodeSpec(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseSpecFlags: flags-only passes through normalized; -spec with
// any explicitly set what-flag is refused; -spec alone loads the file.
func TestParseSpecFlags(t *testing.T) {
	newFS := func() (*flag.FlagSet, *string, *bool) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		exp := fs.String("exp", "", "")
		quick := fs.Bool("quick", false, "")
		fs.Int("parallel", 1, "")
		return fs, exp, quick
	}

	// Flags only.
	fs, exp, quick := newFS()
	if err := fs.Parse([]string{"-exp", "fig3.7", "-quick"}); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpecFlags(fs, "", Spec{Kind: SpecExperiment, Exp: *exp, Quick: *quick}, "exp", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Exp != "fig3.7" || spec.Runs != 1 {
		t.Errorf("flag-built spec not normalized: %+v", spec)
	}

	// Spec file only.
	dir := t.TempDir()
	path := dir + "/spec.json"
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, _, _ := newFS()
	if err := fs2.Parse([]string{"-parallel", "4"}); err != nil { // how-flags are fine alongside -spec
		t.Fatal(err)
	}
	loaded, err := ParseSpecFlags(fs2, path, Spec{Kind: SpecExperiment}, "exp", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if f1, _ := spec.Fingerprint(); true {
		if f2, _ := loaded.Fingerprint(); f1 != f2 {
			t.Errorf("spec loaded from file fingerprints differently: %s vs %s", f1, f2)
		}
	}

	// Mixing -spec with an explicit what-flag is a usage error naming it.
	fs3, _, _ := newFS()
	if err := fs3.Parse([]string{"-exp", "fig3.8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecFlags(fs3, path, Spec{Kind: SpecExperiment, Exp: "fig3.8"}, "exp", "quick"); err == nil || !strings.Contains(err.Error(), "-exp") {
		t.Errorf("mixed -spec and -exp: err = %v, want the flag named", err)
	}

	// A missing file errors.
	fs4, _, _ := newFS()
	if err := fs4.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecFlags(fs4, dir+"/absent.json", Spec{Kind: SpecExperiment}, "exp"); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestPlanFingerprintTracksSpecFingerprint: two Runners planning the
// same Spec (via different spellings) produce one plan fingerprint, and
// a different Spec produces a different one — the property coordinator
// assignments rely on.
func TestPlanFingerprintTracksSpecFingerprint(t *testing.T) {
	ctx := context.Background()
	partialOf := func(s Spec) *PartialResult {
		t.Helper()
		r := NewRunner()
		r.shard = ShardSpec{Index: 0, Count: 4}
		p, err := r.RunCampaignPartial(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := partialOf(smallCampaign())
	spelled := smallCampaign()
	spelled.Runs = 2 // explicit default
	b := partialOf(spelled)
	if a.Fingerprint != b.Fingerprint {
		t.Error("equal Specs produced different plan fingerprints")
	}
	other := smallCampaign()
	other.Runs = 1
	c := partialOf(other)
	if a.Fingerprint == c.Fingerprint {
		t.Error("different Specs produced one plan fingerprint")
	}
}

// TestSpecNormalizeClampsCounts: negative Runs/MaxSites are alternate
// spellings of the defaults and must fold into the canonical form, so
// they cannot split the fingerprints of equal experiments. Overhead
// Specs clear Runs entirely — the measurement plan has no per-run loop.
func TestSpecNormalizeClampsCounts(t *testing.T) {
	exp, err := Spec{Kind: SpecExperiment, Exp: "fig3.7", Runs: -3, MaxSites: -1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if exp.Runs != 2 || exp.MaxSites != 0 {
		t.Errorf("negative counts not folded: runs=%d maxSites=%d", exp.Runs, exp.MaxSites)
	}
	canon, err := Spec{Kind: SpecExperiment, Exp: "fig3.7"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := (Spec{Kind: SpecExperiment, Exp: "fig3.7", Runs: -3, MaxSites: -1}).Fingerprint(); fp != canon {
		t.Error("negative counts split the fingerprint of an equal experiment")
	}
	quick, err := Spec{Kind: SpecExperiment, Exp: "fig3.7", Quick: true, Runs: -1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if quick.Runs != 1 {
		t.Errorf("quick with negative runs = %d, want the quick default 1", quick.Runs)
	}

	ws, vs := smallOverhead()
	ov := OverheadSpec(ws, vs)
	base, err := ov.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	withRuns := ov
	withRuns.Runs = 1
	if fp, _ := withRuns.Fingerprint(); fp != base {
		t.Error("Runs (kind-inapplicable) split the fingerprint of an equal overhead measurement")
	}
	n, _ := withRuns.Normalized()
	if n.Runs != 0 {
		t.Errorf("overhead spec kept Runs=%d, want it cleared", n.Runs)
	}
}

// TestSpecClearsConcurrencyFields: Threads and SchedSeed apply only to
// the concurrent kind. Campaign, overhead, and experiment Specs must
// clear them during normalization so two spellings of one experiment —
// with and without stray concurrency knobs — cannot fingerprint apart;
// concurrent Specs fill their defaults instead.
func TestSpecClearsConcurrencyFields(t *testing.T) {
	fp := func(s Spec) string {
		t.Helper()
		f, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ws, vs := smallOverhead()
	for name, base := range map[string]Spec{
		"campaign":   smallCampaign(),
		"overhead":   OverheadSpec(ws, vs),
		"experiment": quickExp("fig3.7"),
	} {
		t.Run(name, func(t *testing.T) {
			withKnobs := base
			withKnobs.Threads = 7
			withKnobs.SchedSeed = 42
			if fp(base) != fp(withKnobs) {
				t.Error("kind-inapplicable concurrency fields split the fingerprint of an equal experiment")
			}
			n, err := withKnobs.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			if n.Threads != 0 || n.SchedSeed != 0 {
				t.Errorf("normalized %s spec kept threads=%d schedSeed=%d, want both cleared", name, n.Threads, n.SchedSeed)
			}
		})
	}

	// The concurrent kind fills defaults rather than clearing, and a
	// negative thread count folds to the default spelling.
	conc, err := smallConcurrent().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if conc.Threads != 3 || conc.SchedSeed != 1 || conc.Runs != 2 {
		t.Errorf("concurrent defaults: threads=%d schedSeed=%d runs=%d, want 3/1/2", conc.Threads, conc.SchedSeed, conc.Runs)
	}
	negative := smallConcurrent()
	negative.Threads = -4
	if fp(smallConcurrent()) != fp(negative) {
		t.Error("negative thread count split the fingerprint of an equal concurrent campaign")
	}
	distinct := smallConcurrent()
	distinct.Threads = 2
	if fp(smallConcurrent()) == fp(distinct) {
		t.Error("a different thread count fingerprints equal")
	}
}

// TestGoldenCacheResetsOnGeometryChange: a persistent worker's Runner
// serving Specs of different memory geometries must re-measure goldens
// under the new geometry, not serve the previous Spec's baselines.
func TestGoldenCacheResetsOnGeometryChange(t *testing.T) {
	ctx := context.Background()
	ws, vs := smallOverhead()
	spec := OverheadSpec(ws[:1], vs[:2])
	r := NewRunner()
	if _, err := r.RunOverhead(ctx, spec); err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(spec.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	g1, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	bigger := spec
	bigger.Mem = defaultMem()
	bigger.Mem.HeapBytes *= 2
	if _, err := r.RunOverhead(ctx, bigger); err != nil {
		t.Fatal(err)
	}
	g2, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Error("golden cache survived a memory-geometry change")
	}
	// Same geometry again: memoization still applies.
	if _, err := r.RunOverhead(ctx, bigger); err != nil {
		t.Fatal(err)
	}
	if g3, _ := r.Golden(w); g3 != g2 {
		t.Error("golden cache not memoized within one geometry")
	}
}

// hostileCampaign is the campaign Spec of one worker-killing request:
// art under immediate-free with fifty million runs per tuple.
func hostileCampaign() Spec {
	s := CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []Variant{Stdapp()})
	s.Runs = 50_000_000
	return s
}

// TestSpecBounds: Normalized refuses every count and size past its
// named bound with the bound's named error, accepts each bound itself,
// and refuses the fifty-million-run campaign quickly — before anything
// is sized from it.
func TestSpecBounds(t *testing.T) {
	dpmrVariant := NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
	cases := []struct {
		name string
		spec func() Spec
		err  error
	}{
		{"runs 50M", hostileCampaign, ErrRuns},
		{"runs at bound", func() Spec { s := hostileCampaign(); s.Runs = MaxRuns; return s }, nil},
		{"runs above bound", func() Spec { s := hostileCampaign(); s.Runs = MaxRuns + 1; return s }, ErrRuns},
		{"threads 100000", func() Spec { s := smallConcurrent(); s.Threads = 100_000; return s }, ErrThreads},
		{"threads at bound", func() Spec { s := smallConcurrent(); s.Threads = MaxThreads; return s }, nil},
		{"heap -1", func() Spec { s := smallCampaign(); s.Mem = defaultMem(); s.Mem.HeapBytes = -1; return s }, ErrMemBytes},
		{"heap 2^50", func() Spec { s := smallCampaign(); s.Mem = defaultMem(); s.Mem.HeapBytes = 1 << 50; return s }, ErrMemBytes},
		{"heap at bound", func() Spec { s := smallCampaign(); s.Mem = defaultMem(); s.Mem.HeapBytes = MaxMemBytes; return s }, nil},
		{"stack 0", func() Spec { s := smallCampaign(); s.Mem = defaultMem(); s.Mem.StackBytes = 0; return s }, ErrMemBytes},
		{"globals above bound", func() Spec { s := smallCampaign(); s.Mem = defaultMem(); s.Mem.GlobalBytes = MaxMemBytes + 1; return s }, ErrMemBytes},
		{"concurrent plan above bound", func() Spec {
			s := smallConcurrent()
			s.Runs = MaxRuns
			s.Variants = VariantSpecs(repeatVariant(dpmrVariant, 200)...)
			return s
		}, ErrPlannedTrials},
	}
	for _, c := range cases {
		_, err := c.spec().Normalized()
		if !errors.Is(err, c.err) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.err)
		}
	}
	// A campaign's lower bound assumes one site per workload; the plan
	// checks the exact count, here 9 bzip2 sites × 10,000 runs × 21
	// variants, before allocating it.
	wide := CampaignSpec(faultinject.ImmediateFree, workloads.All()[1:2], repeatVariant(dpmrVariant, 20))
	wide.Runs = MaxRuns
	if _, err := wide.Normalized(); err != nil {
		t.Fatalf("wide campaign: %v", err)
	}
	if _, err := NewRunner().PlanTrials(wide); !errors.Is(err, ErrPlannedTrials) {
		t.Errorf("PlanTrials of the wide campaign: err %v, want %v", err, ErrPlannedTrials)
	}
	start := time.Now()
	if _, err := NewRunner().PlanTrials(hostileCampaign()); !errors.Is(err, ErrRuns) {
		t.Fatalf("PlanTrials of the 50M-run campaign: err %v, want %v", err, ErrRuns)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("refusing the 50M-run campaign took %v", d)
	}
}

// repeatVariant is stdapp followed by n copies of v.
func repeatVariant(v Variant, n int) []Variant {
	vs := []Variant{Stdapp()}
	for i := 0; i < n; i++ {
		vs = append(vs, v)
	}
	return vs
}

// TestSpecFingerprintsPinned: the bounds leave every valid Spec's
// canonical form alone, so fingerprints computed before they existed
// still name the same experiments — among them the first Spec of the
// benchmark's fleet stream on seed 1 and a concurrent Spec of its
// concurrent stream on seed 7.
func TestSpecFingerprintsPinned(t *testing.T) {
	cases := []struct {
		name, json, fp string
	}{
		{"perfbench fleet seed 1", `{"kind":"campaign","workloads":["bzip2","mcf"],"variants":[{},{"dpmr":true,"design":"sds","diversity":"pad-malloc 256","policy":"all loads"},{"dpmr":true,"design":"sds","diversity":"no-diversity","policy":"all loads"},{"dpmr":true,"design":"sds","diversity":"pad-malloc 1024","policy":"all loads"}],"inject":"heap-array-resize","runs":2,"maxSites":3,"timeoutFactor":20,"mem":{"GlobalBytes":65536,"HeapBytes":4194304,"StackBytes":262144,"DisableCache":false}}`,
			"1712342992efc40b6c08b467957f342b7a4573b7586527a8c71be8522bd3cbc0"},
		{"perfbench concurrent seed 7", `{"kind":"concurrent","workloads":["csteal"],"variants":[{},{"dpmr":true,"design":"sds","diversity":"rearrange-heap","policy":"temporal 7/8"}],"runs":4,"threads":4,"schedSeed":382353,"timeoutFactor":20,"mem":{"GlobalBytes":65536,"HeapBytes":4194304,"StackBytes":262144,"DisableCache":false}}`,
			"bd3b4311a2d0be9fac29cb1c3eaa2dfa5879ba1227da30a23f06c6eb5927ae9c"},
		{"quick fig3.7", `{"kind":"experiment","exp":"fig3.7","quick":true}`,
			"3143577fcc47d9c44c89ad610f21024cc06d3233c5f94b40b2cadde973d5fffd"},
	}
	for _, c := range cases {
		s, err := DecodeSpec(strings.NewReader(c.json))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp, err := s.Fingerprint(); err != nil || fp != c.fp {
			t.Errorf("%s: fingerprint %s (%v), pinned %s", c.name, fp, err, c.fp)
		}
	}
	if fp, _ := smallCampaign().Fingerprint(); fp != "ddfb75f27300e40084154a111acd593e41b958ecb9641ca6a6636cde2709f00f" {
		t.Errorf("smallCampaign fingerprint %s moved", fp)
	}
}
