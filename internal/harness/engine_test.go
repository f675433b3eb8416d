package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/workloads"
)

// smallCampaign is a multi-workload, multi-variant grid small enough for
// test time but wide enough to exercise stdapp reuse, DPMR variants, and
// the conditional aggregate.
func smallCampaign() Spec {
	s := CampaignSpec(faultinject.ImmediateFree, workloads.All()[:2], []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
	s.MaxSites = 3
	return s
}

// quickExp is the experiment Spec the quick-mode CLI assembles.
func quickExp(id string) Spec {
	return Spec{Kind: SpecExperiment, Exp: id, Quick: true}
}

func campaignAt(t *testing.T, parallel int) (*CampaignResult, *Runner) {
	t.Helper()
	r := NewRunner()
	r.parallel = parallel
	cr, err := r.RunCampaign(context.Background(), smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	return cr, r
}

// TestCampaignDeterministicAcrossWorkerCounts is the engine's core
// contract: same Spec + seed ⇒ identical CampaignResult at parallel=1
// and parallel=8, down to the rendered report bytes.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, _ := campaignAt(t, 1)
	parallel, _ := campaignAt(t, 8)
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("coverage cells differ between parallel=1 and parallel=8:\n%+v\nvs\n%+v",
			serial.Cells, parallel.Cells)
	}
	if !reflect.DeepEqual(serial.Conditional, parallel.Conditional) {
		t.Errorf("conditional cells differ between parallel=1 and parallel=8")
	}
	var bufS, bufP bytes.Buffer
	renderCoverage(&bufS, serial, labelDiversity)
	renderCoverage(&bufP, parallel, labelDiversity)
	if !bytes.Equal(bufS.Bytes(), bufP.Bytes()) {
		t.Errorf("rendered reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			bufS.String(), bufP.String())
	}
	var condS, condP bytes.Buffer
	renderConditional(&condS, serial, labelDiversity)
	renderConditional(&condP, parallel, labelDiversity)
	if !bytes.Equal(condS.Bytes(), condP.Bytes()) {
		t.Errorf("rendered conditional reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			condS.String(), condP.String())
	}
}

// TestGeneratedReportByteIdenticalAcrossWorkerCounts drives the full
// report path (the bytes dpmr-exp writes) at both worker counts.
func TestGeneratedReportByteIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(parallel int) []byte {
		var buf bytes.Buffer
		err := Generate(context.Background(), quickExp("fig3.7"), &buf, Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("fig3.7 output differs by worker count:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			serial, parallel)
	}
}

// TestOverheadDeterministicAcrossWorkerCounts covers the RunOverhead
// path of the engine.
func TestOverheadDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(parallel int) *OverheadResult {
		r := NewRunner()
		r.parallel = parallel
		or, err := r.RunOverhead(context.Background(), OverheadSpec(workloads.All()[:2], []Variant{
			Stdapp(),
			NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
			NewVariant(dpmr.SDS, dpmr.PadMalloc{Pad: 32}, dpmr.AllLoads{}),
		}))
		if err != nil {
			t.Fatal(err)
		}
		return or
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("overhead results differ between parallel=1 and parallel=4:\n%+v\nvs\n%+v",
			serial, parallel)
	}
}

// TestCampaignConcurrent exercises the engine under many workers (and,
// in CI, under the race detector): shared frozen modules, the build
// cache, golden memoization, and the typed event stream all run from 8
// goroutines at once.
func TestCampaignConcurrent(t *testing.T) {
	r := NewRunner()
	r.parallel = 8
	var mu sync.Mutex
	var trialDone, progress, lastTotal int
	maxDone := 0
	r.Events = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case TrialDone:
			trialDone++
			lastTotal = e.Total
			if e.Done > maxDone {
				maxDone = e.Done
			}
		case Progress:
			progress++
		}
	}
	spec := smallCampaign()
	spec.Runs = 1
	cr, err := r.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Workloads) != 2 {
		t.Fatalf("workloads = %v", cr.Workloads)
	}
	if trialDone == 0 || maxDone != lastTotal {
		t.Errorf("event stream incomplete: %d TrialDone events, max done %d, total %d", trialDone, maxDone, lastTotal)
	}
	if progress != trialDone {
		t.Errorf("every TrialDone should pair with a Progress event: %d vs %d", progress, trialDone)
	}
}

// TestModuleCacheBuildsEachModuleOnce asserts stage 1 of the engine:
// the trial grid executes sites × variants × runs VMs but only
// sites × variants (+ golden-equivalent stdapp) distinct modules are
// ever built, even though each injected module is released after its
// last trial.
func TestModuleCacheBuildsEachModuleOnce(t *testing.T) {
	spec := smallCampaign()
	spec.Workloads = spec.Workloads[:1]
	spec.Runs = 3 // more runs than the serial engine needs modules for
	w := workloads.All()[0]
	sites := len(sampleSites(faultinject.Enumerate(w.Build(), faultinject.ImmediateFree), spec.MaxSites))
	r := NewRunner()
	r.parallel = 4
	if _, err := r.RunCampaign(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// One frozen base per workload, plus stdapp + 2 DPMR variants per
	// site; non-injected variant modules are not built by the campaign
	// (stdapp reuse covers non-DPMR variants).
	want := 1 + sites*3
	if got := r.CacheStats().Builds; got != want {
		t.Errorf("built %d modules, want %d (base + sites=%d × variants=3)", got, want, sites)
	}
}

// planModules counts the distinct modules a campaign Spec's plan
// executes, plus one base per workload.
func planModules(t *testing.T, spec Spec) int {
	t.Helper()
	n, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewRunner().planCampaign(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[moduleKey]bool)
	for _, tr := range plan.trials {
		keys[tr.key()] = true
	}
	return len(keys) + len(plan.workloads)
}

// TestEvictionBoundsResidency is the residency contract of last-trial
// eviction: a campaign builds each of its plan's distinct modules
// exactly once — a module evicted while it still had pending trials
// would be rebuilt, pushing Builds past that count — while its peak
// residency stays strictly below its builds, and the same results come
// out at any worker count.
func TestEvictionBoundsResidency(t *testing.T) {
	spec := smallCampaign()
	want := planModules(t, spec)
	var results []*CampaignResult
	for _, parallel := range []int{1, 8} {
		r := NewRunner()
		r.parallel = parallel
		cr, err := r.RunCampaign(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cr)
		st := r.CacheStats()
		if st.Builds != want {
			t.Errorf("parallel=%d: built %d modules, the plan has %d — a module was evicted with pending trials and rebuilt",
				parallel, st.Builds, want)
		}
		if st.Peak >= st.Builds {
			t.Errorf("parallel=%d: peak residency %d, want strictly below %d builds", parallel, st.Peak, st.Builds)
		}
		if bases := len(spec.Workloads); st.Resident != bases || st.Evicted != st.Builds-bases {
			t.Errorf("parallel=%d: after the run %+v, want only the %d bases resident", parallel, st, bases)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("campaign results differ between parallel=1 and parallel=8")
	}
}

// TestEvictionKeepsSerialResidencyConstant pins the serial residency
// bound: with one worker, a site's modules are released as soon as its
// trials pass, so peak residency is the per-site module count plus the
// shared bases — independent of how many sites the campaign has.
func TestEvictionKeepsSerialResidencyConstant(t *testing.T) {
	peakAt := func(maxSites int) int {
		spec := smallCampaign()
		spec.Workloads = spec.Workloads[:1]
		spec.MaxSites = maxSites
		spec.Runs = 1
		r := NewRunner()
		if _, err := r.RunCampaign(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		return r.CacheStats().Peak
	}
	if p2, p4 := peakAt(2), peakAt(4); p4 != p2 {
		t.Errorf("serial evicting peak residency grew with site count: %d sites → %d, %d sites → %d", 2, p2, 4, p4)
	}
}

// withoutClock re-encodes a payload of any kind without its wall-clock
// elapsedMS field: every other byte is a function of the Spec and the
// shard.
func withoutClock(t *testing.T, payload []byte) []byte {
	t.Helper()
	var p map[string]any
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	delete(p, "elapsedMS")
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPersistentRunnerResidency is the module lifetime of a long-lived
// worker: one Runner serving many campaign, concurrent and overhead
// Specs through ShardPayload, as the daemon's local workers and
// WorkerLoop do. After
// every Spec only the bases remain resident, the high-water mark never
// exceeds the largest a fresh Runner reaches on any one of the Specs,
// and every payload is byte-identical to a fresh Runner's, apart from
// its wall-clock field. The concurrent Specs span three thread counts,
// and one of them plans no stdapp trial, so its golden group's module
// is used by no trial at all.
func TestPersistentRunnerResidency(t *testing.T) {
	ws := workloads.All()[:2]
	var specs []Spec
	for _, kind := range []faultinject.Kind{faultinject.ImmediateFree, faultinject.HeapArrayResize} {
		for _, vs := range [][]Variant{
			{Stdapp(), NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})},
			{Stdapp(), NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.TemporalHalf)},
		} {
			for _, maxSites := range []int{1, 2} {
				s := CampaignSpec(kind, ws, vs)
				s.Runs = 1
				s.MaxSites = maxSites
				specs = append(specs, s)
			}
		}
	}
	for _, c := range []struct {
		threads int
		vs      []Variant
	}{
		{2, []Variant{Stdapp(), NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})}},
		{3, []Variant{NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})}},
		{4, []Variant{Stdapp(), NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{})}},
	} {
		s := ConcurrentSpec([]string{"chash", "cpipe"}, c.vs)
		s.Runs = 1
		s.Threads = c.threads
		specs = append(specs, s)
	}
	specs = append(specs, OverheadSpec(ws, []Variant{Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}), NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})}))
	shards := []ShardSpec{{}, {Index: 0, Count: 2}, {Index: 1, Count: 2}}
	persistent := NewRunner()
	opts := Options{Parallel: 1, Runner: persistent}
	freshPeak := 0
	for i, spec := range specs {
		shard := shards[i%len(shards)]
		got, err := ShardPayload(context.Background(), spec, shard, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewRunner()
		want, err := ShardPayload(context.Background(), spec, shard, Options{Parallel: 1, Runner: fresh})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := withoutClock(t, got), withoutClock(t, want); !bytes.Equal(got, want) {
			t.Errorf("spec %d shard %v: the persistent Runner's payload differs from a fresh Runner's:\n%s\n%s", i, shard, got, want)
		}
		freshPeak = max(freshPeak, fresh.CacheStats().Peak)
		st := persistent.CacheStats()
		if st.Resident != len(ws) {
			t.Errorf("after spec %d: %d modules resident, want the %d bases", i, st.Resident, len(ws))
		}
		if st.Peak > freshPeak {
			t.Errorf("after spec %d: peak residency %d, above the %d a fresh Runner reaches on any spec so far", i, st.Peak, freshPeak)
		}
	}
	if st := persistent.CacheStats(); st.Builds <= st.Peak {
		t.Errorf("persistent Runner built %d modules with peak %d: eviction never released one", st.Builds, st.Peak)
	}
}

// TestRunOnceSharedModuleConcurrently hammers one cached frozen module
// from many goroutines; under -race this is the direct audit that a
// read-only module is safe under concurrent VMs.
func TestRunOnceSharedModuleConcurrently(t *testing.T) {
	r := NewRunner()
	w, err := workloads.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	v := NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
	sites := faultinject.Enumerate(w.Build(), faultinject.ImmediateFree)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	site := sites[0]
	var wg sync.WaitGroup
	outs := make([]Outcome, 8)
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := r.RunOnce(w, v, &site, i%2)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = o
		}()
	}
	wg.Wait()
	// Same rn ⇒ same outcome, even though all eight runs shared one module.
	for i := 2; i < len(outs); i++ {
		ref := outs[i%2]
		if outs[i].SF != ref.SF || outs[i].CO != ref.CO ||
			outs[i].DpmrDet != ref.DpmrDet || outs[i].NatDet != ref.NatDet ||
			outs[i].T2DCycles != ref.T2DCycles {
			t.Errorf("outcome %d diverged from its seed twin: %+v vs %+v", i, outs[i], ref)
		}
	}
	// The workload's frozen base plus the one injected DPMR module.
	if got := r.CacheStats().Resident; got != 2 {
		t.Errorf("cache holds %d modules, want 2 (base + variant)", got)
	}
}
