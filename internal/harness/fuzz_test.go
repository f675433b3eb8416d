package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
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

// FuzzDecodeSpec fuzzes the Spec decoder a daemon runs on every
// submission. Whatever DecodeSpec accepts must already be canonical
// (normalizing again changes nothing), must keep its fingerprint across
// a JSON round trip, and must stay inside every named bound.
func FuzzDecodeSpec(f *testing.F) {
	ws, vs := smallOverhead()
	for _, s := range []Spec{smallCampaign(), OverheadSpec(ws, vs), smallConcurrent(), quickExp("fig3.7"), hostileCampaign()} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"kind":"concurrent","workloads":["chash"],"variants":[{}],"threads":100000}`,
		`{"kind":"campaign","workloads":["art"],"variants":[{}],"inject":"immediate-free","mem":{"HeapBytes":-1}}`,
		`{"kind":"campaign","workloads":["art"],"variants":[{}],"inject":"immediate-free","mem":{"GlobalBytes":1,"HeapBytes":1125899906842624,"StackBytes":1}}`,
		`{"kind":"experiment","exp":"fig3.7","quick":true,"runs":-3}`,
		`{"kind":"overhead"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := n.Normalized()
		if err != nil {
			t.Fatalf("a decoded Spec fails to normalize again: %v", err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\n%+v\n%+v", n, again)
		}
		fp, err := n.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("the JSON of a decoded Spec does not decode: %v\n%s", err, wire)
		}
		if fp2, err := back.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("fingerprint %s became %s (%v) across a JSON round trip", fp, fp2, err)
		}
		switch {
		case n.Runs > MaxRuns, n.Threads > MaxThreads, n.TimeoutFactor > MaxTimeoutFactor:
			t.Fatalf("normalized Spec past a count bound: %+v", n)
		case n.plannedLowerBound() > MaxPlannedTrials:
			t.Fatalf("normalized Spec plans %d trials", n.plannedLowerBound())
		}
		for _, size := range []int{n.Mem.GlobalBytes, n.Mem.HeapBytes, n.Mem.StackBytes} {
			if size <= 0 || size > MaxMemBytes {
				t.Fatalf("normalized Spec has mem size %d", size)
			}
		}
	})
}

// FuzzDecodeEvent fuzzes the event decoder a -remote client runs on
// every frame the daemon streams back. Arbitrary bytes must decode to
// exactly one event or be refused — never a panic — and whatever decodes
// must render through the CLIs' progress sink and survive a second trip
// over the wire unchanged.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range []Event{
		TrialDone{Done: 3, Total: 40, Elapsed: 1500},
		Progress{Done: 40, Total: 40, Stats: CacheStats{Builds: 4, Evicted: 1, Resident: 3, Peak: 4}},
		ShardMerged{Shard: SpanShard(5, 9), Lo: 5, Hi: 9, Total: 40, Elapsed: 2000},
		CacheStats{Builds: 12, Evicted: 12, Peak: 3},
	} {
		data, err := EncodeEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{`{}`, `{"trialDone":{},"progress":{}}`, `{"shardMerged":{"Shard":{"index":-1,"count":0,"lo":9,"hi":2}}}`, `null`, `{"progress":`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			return
		}
		RenderProgress(io.Discard, "fuzz")(ev)
		wire, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("a decoded event does not encode: %v", err)
		}
		back, err := DecodeEvent(wire)
		if err != nil {
			t.Fatalf("the encoding of a decoded event does not decode: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("event changed across a wire round trip:\n%#v\n%#v", ev, back)
		}
	})
}
