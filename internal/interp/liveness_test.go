package interp_test

import (
	"sync/atomic"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/interp"
	"dpmr/internal/workloads"
)

// TestBlockLivenessMatchesDenseOnCampaignModules holds the per-block
// liveness to the dense per-pc oracle on every module a full campaign
// grid builds: each workload, both fault kinds, every site, and the SDS
// and MDS diversity and policy variant sets (the harness's
// DiversityVariants and PolicyVariants, seeded as the harness seeds
// them). Every function must pack to identical code, frame width,
// parameters and call arguments.
func TestBlockLivenessMatchesDenseOnCampaignModules(t *testing.T) {
	var cfgs []dpmr.Config
	for _, design := range []dpmr.Design{dpmr.SDS, dpmr.MDS} {
		for _, d := range dpmr.Diversities() {
			cfgs = append(cfgs, dpmr.Config{Design: design, Diversity: d, Policy: dpmr.AllLoads{}, Seed: 12345})
		}
		for _, p := range dpmr.Policies() {
			cfgs = append(cfgs, dpmr.Config{Design: design, Diversity: dpmr.RearrangeHeap{}, Policy: p, Seed: 12345})
		}
	}
	var modules, want atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, w := range workloads.All() {
			for _, kind := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
				w, kind := w, kind
				t.Run(w.Name+"/"+kind.String(), func(t *testing.T) {
					t.Parallel()
					base := w.Build()
					base.Freeze()
					sites := faultinject.Enumerate(base, kind)
					want.Add(int64(len(sites) * len(cfgs)))
					for _, site := range sites {
						im, err := faultinject.Apply(base, site)
						if err != nil {
							t.Fatal(err)
						}
						im.Freeze()
						for _, cfg := range cfgs {
							xm, err := dpmr.Transform(im, cfg)
							if err != nil {
								t.Fatal(err)
							}
							xm.Freeze()
							diff, err := interp.DensePackingDiff(xm, false)
							if err != nil {
								t.Fatalf("%s %v: %v", site, cfg, err)
							}
							if diff != "" {
								t.Fatalf("%s %s/%s/%s: %s", site, cfg.Design, cfg.Diversity.Name(), cfg.Policy.Name(), diff)
							}
							modules.Add(1)
						}
					}
				})
			}
		}
	})
	if modules.Load() == 0 || modules.Load() != want.Load() {
		t.Fatalf("compared %d modules, want %d", modules.Load(), want.Load())
	}
	t.Logf("%d campaign modules pack identically", modules.Load())
}
