package harness_test

import (
	"context"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"dpmr/internal/coord"
	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// TestPolicyReachesEveryRunner holds every entry point that executes
// trials to the one execution-policy surface: given the same Options,
// each runs every trial range on a Runner with exactly that policy —
// sessions of either kind, the worker-side ShardPayload, the sharded and
// journaled experiment generators, the CLIs' in-process -coord fleet,
// and the daemon's local and socket workers. The -coord fleet keeps one
// persistent Runner per slot, not one per assignment.
func TestPolicyReachesEveryRunner(t *testing.T) {
	ctx := context.Background()
	want := harness.Options{Parallel: 3, Reference: true}
	campaign := harness.CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []harness.Variant{
		harness.Stdapp(), harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
	campaign.Runs, campaign.MaxSites = 1, 2
	experiment := harness.ExperimentSpec("fig3.16")
	experiment.Quick = true
	half := harness.ShardSpec{Index: 0, Count: 2}

	// fleet submits the campaign to a daemon over a Unix socket; join,
	// when set, adds a socket worker running under opts.
	fleet := func(t *testing.T, cfg coordnet.ServerConfig, join bool, opts harness.Options) error {
		addr := filepath.Join(t.TempDir(), "d.sock")
		ln, err := coordnet.Listen(addr)
		if err != nil {
			return err
		}
		sctx, stop := context.WithCancel(ctx)
		var wg sync.WaitGroup
		defer func() {
			stop()
			wg.Wait()
		}()
		srv := coordnet.NewServer(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(sctx, ln)
		}()
		if join {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = coordnet.WorkerLoop(sctx, addr, opts, nil)
			}()
		}
		_, err = coordnet.Submit(ctx, addr, campaign, nil)
		return err
	}
	start := func(spec harness.Spec, opts harness.Options) error {
		s, err := harness.Start(ctx, spec, nil, opts)
		if err != nil {
			return err
		}
		_, err = s.Wait()
		return err
	}
	cases := []struct {
		name string
		run  func(t *testing.T, opts harness.Options) error
	}{
		{"Start/campaign", func(_ *testing.T, opts harness.Options) error { return start(campaign, opts) }},
		{"Start/experiment", func(_ *testing.T, opts harness.Options) error { return start(experiment, opts) }},
		{"ShardPayload", func(_ *testing.T, opts harness.Options) error {
			_, err := harness.ShardPayload(ctx, campaign, half, opts)
			return err
		}},
		{"GenerateSharded", func(_ *testing.T, opts harness.Options) error {
			return harness.GenerateSharded(ctx, experiment, half, io.Discard, opts)
		}},
		{"GenerateJournaled", func(t *testing.T, opts harness.Options) error {
			j, prior, err := harness.OpenJournal(t.TempDir(), false, experiment)
			if err != nil {
				return err
			}
			defer j.Close()
			_, err = harness.GenerateJournaled(ctx, experiment, j, prior, harness.DefaultResumeSpans, io.Discard, opts, nil)
			return err
		}},
		{"coord/in-process", func(_ *testing.T, opts harness.Options) error {
			cf := coord.CLIFlags{Workers: 2, Shards: 4}
			_, err := coord.Run(ctx, cf.Fleet(campaign, opts, false, io.Discard))
			return err
		}},
		{"coordnet/local", func(t *testing.T, opts harness.Options) error {
			return fleet(t, coordnet.ServerConfig{LocalWorkers: 1, WorkerOptions: opts}, false, opts)
		}},
		{"coordnet/socket", func(t *testing.T, opts harness.Options) error {
			return fleet(t, coordnet.ServerConfig{}, true, opts)
		}},
	}
	// The most distinct Runners a case may use: one per fleet slot.
	maxRunners := map[string]int{"coord/in-process": 2}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []harness.Options
			restore := harness.ObservePolicy(func(o harness.Options) {
				mu.Lock()
				seen = append(seen, o)
				mu.Unlock()
			})
			err := tc.run(t, want)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) == 0 {
				t.Fatal("no trial range ran")
			}
			runners := make(map[*harness.Runner]bool)
			for _, got := range seen {
				if got.Parallel != want.Parallel || got.Reference != want.Reference {
					t.Fatalf("a trial range ran with Parallel %d, Reference %v; want %d, %v",
						got.Parallel, got.Reference, want.Parallel, want.Reference)
				}
				runners[got.Runner] = true
			}
			if n := maxRunners[tc.name]; n > 0 && len(runners) > n {
				t.Errorf("trial ranges ran on %d distinct Runners, want at most %d", len(runners), n)
			}
		})
	}
}
