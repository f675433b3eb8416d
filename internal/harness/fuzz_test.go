package harness

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"dpmr/internal/faultinject"
	"dpmr/internal/workloads"
)

// fuzzMergeState shares one Runner, campaign Spec, and a genuine
// partial result across fuzz iterations: the Runner memoizes the base
// module build, keeping per-exec plan recomputation cheap, and the real
// partial seeds the corpus with bytes that pass every validation layer.
var fuzzMergeState struct {
	once sync.Once
	r    *Runner
	spec Spec
	seed []byte
	err  error
}

func fuzzMergeSetup() (*Runner, Spec, []byte, error) {
	s := &fuzzMergeState
	s.once.Do(func() {
		s.r = NewRunner()
		s.spec = CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []Variant{Stdapp()})
		s.spec.Runs = 1
		s.spec.MaxSites = 2
		p, err := s.r.RunCampaignPartial(context.Background(), s.spec)
		if err != nil {
			s.err = err
			return
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			s.err = err
			return
		}
		s.seed = buf.Bytes()
	})
	return s.r, s.spec, s.seed, s.err
}

// FuzzMergeCampaign fuzzes the partial-result decoder and the merge
// validation stack: arbitrary bytes must either decode into a partial
// that MergeCampaign accepts or be rejected with an error — never a
// panic, and never an allocation sized by attacker-controlled fields
// (the merge buffer is sized by the locally recomputed plan, not the
// file's Total).
func FuzzMergeCampaign(f *testing.F) {
	_, _, seed, err := fuzzMergeSetup()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"fingerprint":"f","shard":{"index":0,"count":1},"lo":0,"hi":1,"total":1,"outcomes":[{"sf":true}]}`))
	f.Add([]byte(`{"fingerprint":"f","lo":0,"hi":0,"total":0,"outcomes":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"lo":-5,"hi":2,"total":99999999999,"outcomes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, spec, _, err := fuzzMergeSetup()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MergeCampaign(spec, []*PartialResult{p}); err == nil {
			// A single accepted partial must have covered the whole plan.
			if p.Lo != 0 || p.Hi != p.Total {
				t.Fatalf("merge accepted a partial covering [%d, %d) of %d", p.Lo, p.Hi, p.Total)
			}
		}
	})
}

// TestFuzzMergeSeedRoundTrips pins the seed partial's behavior outside
// fuzzing mode: a genuine encoded partial decodes and merges cleanly.
func TestFuzzMergeSeedRoundTrips(t *testing.T) {
	r, spec, seed, err := fuzzMergeSetup()
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePartial(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := r.MergeCampaign(spec, []*PartialResult{p})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := r.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	renderCoverage(&a, cr, labelDiversity)
	renderCoverage(&b, direct, labelDiversity)
	if a.String() != b.String() {
		t.Errorf("merged single-shard report differs from direct run:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// FuzzMergePartials fuzzes every partial decoder against every plan
// kind: the input decodes as a campaign or concurrent PartialResult, an
// OverheadPartial, and an ExperimentPartial, and each decoded partial
// merges against the campaign, overhead, and concurrent plans of
// pinSpecs that match its wire type. Nothing may panic, and a single
// partial a merge accepts must cover its whole plan.
func FuzzMergePartials(f *testing.F) {
	for _, seed := range []string{pinCampaignPartial, pinOverheadPartial, pinConcurrentPartial, pinExperimentPartial,
		`{"fingerprint":"f","lo":0,"hi":1,"total":1,"cycles":[7]}`, `{"exp":"fig3.16","overheads":[null]}`, `[`} {
		f.Add([]byte(seed))
	}
	campaign, overhead, concurrent := pinSpecs()
	r := NewRunner()
	whole := func(t *testing.T, what string, p partial, err error) {
		if err != nil {
			return
		}
		if s := p.span(); s.lo != 0 || s.hi != s.total {
			t.Fatalf("%s accepted a partial covering [%d, %d) of %d", what, s.lo, s.hi, s.total)
		}
	}
	mergeOutcomes := func(t *testing.T, p *PartialResult) {
		_, err := r.MergeCampaign(campaign, []*PartialResult{p})
		whole(t, "MergeCampaign", p, err)
		_, err = r.MergeConcurrent(concurrent, []*PartialResult{p})
		whole(t, "MergeConcurrent", p, err)
	}
	mergeCycles := func(t *testing.T, p *OverheadPartial) {
		_, err := r.MergeOverhead(overhead, []*OverheadPartial{p})
		whole(t, "MergeOverhead", p, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodePartial(bytes.NewReader(data)); err == nil {
			mergeOutcomes(t, p)
		}
		if p, err := DecodeOverheadPartial(bytes.NewReader(data)); err == nil {
			mergeCycles(t, p)
		}
		if ep, err := DecodeExperimentPartial(bytes.NewReader(data)); err == nil {
			for _, p := range ep.Campaigns {
				mergeOutcomes(t, p)
			}
			for _, p := range ep.Overheads {
				mergeCycles(t, p)
			}
		}
	})
}
