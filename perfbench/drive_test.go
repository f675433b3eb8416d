package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// smallSpecs is one small Spec of each kind.
func smallSpecs(t *testing.T) []harness.Spec {
	t.Helper()
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sds := harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{})
	campaign := harness.CampaignSpec(faultinject.ImmediateFree, []workloads.Workload{mcf}, []harness.Variant{harness.Stdapp(), sds})
	campaign.Runs, campaign.MaxSites = 1, 2
	concurrent := harness.ConcurrentSpec([]string{"chash"}, []harness.Variant{harness.Stdapp(), sds})
	concurrent.Threads, concurrent.Runs = 2, 2
	return []harness.Spec{campaign, harness.OverheadSpec([]workloads.Workload{mcf}, []harness.Variant{harness.Stdapp(), sds}), concurrent}
}

// The traced path's replay must pass its cross-checks and render the
// same report as the untraced path.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, spec := range smallSpecs(t) {
		plain, err := runLocal(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		tr := newTracer()
		traced, err := runLocalTraced(ctx, spec, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.Kind, err)
		}
		if string(plain.text) != string(traced.text) || plain.trials != traced.trials {
			t.Errorf("%s: traced report differs:\n%s\nvs\n%s", spec.Kind, traced.text, plain.text)
		}
		if tr.counts["harness.modules_built"] == 0 || len(tr.spans) == 0 {
			t.Errorf("%s: nothing traced: %v", spec.Kind, tr.counts)
		}
	}
}

// A fleet Spec's merged report equals the in-process one, traced or not,
// and stopping the fleet waits for its daemon and worker.
func TestFleetMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "pb")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	for i, tr := range []*tracer{nil, newTracer()} {
		spec := smallSpecs(t)[0]
		spec.MaxSites = 1 + i // a fresh fingerprint per submission
		local, err := runLocal(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.run(ctx, i, spec, tr)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if string(got.text) != string(local.text) || got.trials != local.trials {
			t.Errorf("submission %d: fleet report differs:\n%s\nvs\n%s", i, got.text, local.text)
		}
	}
	if err := f.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "replay", "1")); err != nil {
		t.Errorf("traced submission left no journal replay: %v", err)
	}
}
