package coordnet_test

// End-to-end drills for the networked campaign service, all in-process
// over real sockets: daemon, fleet, and clients share the test binary
// but speak the same frames the spawned `dpmrd` binaries do. Every test
// ends with a goroutine-leak check — a daemon that sheds connections
// but not goroutines would pass every functional assertion and still be
// unfit to run always-on.

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
	"dpmr/internal/workloads"
)

// daemon spins up a Server on a loopback TCP listener and returns its
// address plus a shutdown func that drains it and verifies Serve exits.
func daemon(t *testing.T, cfg coordnet.ServerConfig) (*coordnet.Server, string, func()) {
	t.Helper()
	srv := coordnet.NewServer(cfg)
	ln, err := coordnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	shutdown := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not drain within 10s of cancellation")
		}
	}
	return srv, ln.Addr().String(), shutdown
}

// joinWorkers starts n fleet workers against addr and waits until the
// daemon has all of them pooled. The returned stop func cancels the
// workers and waits for their loops to exit.
func joinWorkers(t *testing.T, srv *coordnet.Server, addr string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := coordnet.WorkerLoop(ctx, addr, harness.Options{}, nil); err != nil {
				t.Errorf("WorkerLoop: %v", err)
			}
		}()
	}
	waitFleet(t, srv, n)
	return func() {
		cancel()
		wg.Wait()
	}
}

func waitFleet(t *testing.T, srv *coordnet.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.FleetSize() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (have %d)", n, srv.FleetSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkGoroutines polls until the goroutine count returns to the
// baseline, dumping stacks if it never does.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutine leak: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

func quickSpec(exp string) harness.Spec {
	s := harness.ExperimentSpec(exp)
	s.Quick = true
	return s
}

func unsharded(t *testing.T, exp string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.Generate(context.Background(), quickSpec(exp), &buf, harness.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mergePayloads(t *testing.T, spec harness.Spec, payloads [][]byte) []byte {
	t.Helper()
	readers := make([]io.Reader, len(payloads))
	for i, p := range payloads {
		readers[i] = bytes.NewReader(p)
	}
	var merged bytes.Buffer
	if err := harness.GenerateMerged(context.Background(), spec, &merged, readers, harness.Options{}); err != nil {
		t.Fatal(err)
	}
	return merged.Bytes()
}

// testCampaignSpec is a small pure-campaign Spec (several shards' worth
// of trials) for the journaled submission paths.
func testCampaignSpec() harness.Spec {
	spec := harness.CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
	spec.Runs = 1
	spec.MaxSites = 6
	return spec
}

// TestRemoteFleetChaosByteIdentity is the PR's acceptance contract: a
// quick fig3.7 campaign submitted to a daemon whose fleet is three
// remote workers over real sockets, with chaos severing one socket
// mid-shard, merges byte-identical to an unsharded local run — and
// daemon shutdown plus worker teardown leak no goroutines.
func TestRemoteFleetChaosByteIdentity(t *testing.T) {
	golden := unsharded(t, "fig3.7")
	before := runtime.NumGoroutine()

	srv, addr, shutdown := daemon(t, coordnet.ServerConfig{Chaos: 1})
	stopWorkers := joinWorkers(t, srv, addr, 3)

	var events int
	payloads, err := coordnet.Submit(context.Background(), addr, quickSpec("fig3.7"), func(harness.Event) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no shard events streamed back")
	}
	merged := mergePayloads(t, quickSpec("fig3.7"), payloads)
	if !bytes.Equal(golden, merged) {
		t.Errorf("remote merge differs from unsharded run:\n--- unsharded ---\n%s\n--- remote ---\n%s", golden, merged)
	}

	stopWorkers()
	shutdown()
	checkGoroutines(t, before)
}

// TestMultiplexedClientsIsolated: two clients submit different Specs to
// one daemon concurrently; each merged report must be byte-identical to
// its own single-client baseline — the shared fleet never
// cross-contaminates campaigns.
func TestMultiplexedClientsIsolated(t *testing.T) {
	exps := []string{"fig3.7", "fig3.16"}
	goldens := make([][]byte, len(exps))
	for i, exp := range exps {
		goldens[i] = unsharded(t, exp)
	}
	before := runtime.NumGoroutine()

	_, addr, shutdown := daemon(t, coordnet.ServerConfig{LocalWorkers: 2})

	merged := make([][]byte, len(exps))
	var wg sync.WaitGroup
	for i, exp := range exps {
		i, exp := i, exp
		wg.Add(1)
		go func() {
			defer wg.Done()
			payloads, err := coordnet.Submit(context.Background(), addr, quickSpec(exp), nil)
			if err != nil {
				t.Errorf("%s: %v", exp, err)
				return
			}
			merged[i] = mergePayloads(t, quickSpec(exp), payloads)
		}()
	}
	wg.Wait()
	for i, exp := range exps {
		if merged[i] != nil && !bytes.Equal(goldens[i], merged[i]) {
			t.Errorf("%s: multiplexed merge differs from its single-client baseline", exp)
		}
	}

	shutdown()
	checkGoroutines(t, before)
}

// TestOverheadExperimentShardRanges: the daemon's streamed shard events
// for an experiment that runs only overhead measurements carry the same
// trial ranges the client-side merge reports for the same payloads.
func TestOverheadExperimentShardRanges(t *testing.T) {
	spec := quickSpec("fig3.16")
	before := runtime.NumGoroutine()
	_, addr, shutdown := daemon(t, coordnet.ServerConfig{LocalWorkers: 1})

	type span struct{ lo, hi, total int }
	ranges := func(sink *[]span) func(harness.Event) {
		return func(ev harness.Event) {
			if m, ok := ev.(harness.ShardMerged); ok {
				*sink = append(*sink, span{m.Lo, m.Hi, m.Total})
			}
		}
	}
	var streamed, merged []span
	payloads, err := coordnet.Submit(context.Background(), addr, spec, ranges(&streamed))
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(payloads))
	for i, p := range payloads {
		readers[i] = bytes.NewReader(p)
	}
	if err := harness.GenerateMerged(context.Background(), spec, io.Discard, readers, harness.Options{Events: ranges(&merged)}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(streamed, func(a, b int) bool { return streamed[a].lo < streamed[b].lo })
	if len(merged) == 0 || !reflect.DeepEqual(streamed, merged) {
		t.Errorf("daemon streamed shard ranges %v, client merge reports %v", streamed, merged)
	}

	shutdown()
	checkGoroutines(t, before)
}

// TestClientDisconnectResume: a client that vanishes mid-run cancels
// its submission (releasing the fleet to other tenants) but loses
// nothing durable — the daemon journaled every completed span, so
// resubmitting the identical Spec replays the journal, executes only
// the trials it leaves uncovered, and merges a report byte-identical to
// a local run that was never interrupted. Every kind with a plan is
// journaled: campaign, overhead and concurrent.
func TestClientDisconnectResume(t *testing.T) {
	overhead := harness.OverheadSpec(workloads.All(), []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		harness.NewVariant(dpmr.MDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
	concurrent := harness.ConcurrentSpec([]string{"chash", "cpipe"}, []harness.Variant{
		harness.Stdapp(),
		harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	})
	concurrent.Runs = 4
	for _, spec := range []harness.Spec{testCampaignSpec(), overhead, concurrent} {
		spec := spec
		t.Run(string(spec.Kind), func(t *testing.T) {
			testDisconnectResume(t, spec)
		})
	}
}

func testDisconnectResume(t *testing.T, spec harness.Spec) {
	var local bytes.Buffer
	s, err := harness.Start(context.Background(), spec, nil, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	res.Render(&local, "resumed")
	before := runtime.NumGoroutine()

	logs := make(chan string, 256)
	root := t.TempDir()
	var executed atomic.Int64
	_, addr, shutdown := daemon(t, coordnet.ServerConfig{
		LocalWorkers: 1,
		JournalRoot:  root,
		WorkerOptions: harness.Options{Events: func(ev harness.Event) {
			if _, ok := ev.(harness.TrialDone); ok {
				executed.Add(1)
			}
		}},
		Log: func(format string, args ...any) {
			select {
			case logs <- strings.TrimSpace(format):
			default:
			}
		},
	})

	// Vanish after the first journaled shard: cancel the submit context
	// on the first streamed event, which severs the client socket.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = coordnet.Submit(ctx, addr, spec, func(harness.Event) { cancel() })
	cancel()
	if err == nil {
		t.Fatal("interrupted Submit returned no error")
	}

	// Wait for the daemon to settle the severed submission (either it
	// noticed the disconnect and failed the run, or the run had already
	// finished and only the result delivery failed); both messages come
	// after the journal claim is released.
	deadline := time.After(10 * time.Second)
	for settled := false; !settled; {
		select {
		case line := <-logs:
			settled = strings.Contains(line, "submission failed") || strings.Contains(line, "delivering result")
		case <-deadline:
			t.Fatal("daemon never settled the severed submission")
		}
	}

	// The journal must have survived the disconnect, holding at least
	// the span whose event the client saw.
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	j, rp, err := journal.Open(filepath.Join(root, fp[:16]), fp)
	if err != nil {
		t.Fatalf("no journal survived the disconnect: %v", err)
	}
	c, err := harness.NewRunner().Resume(spec, nil, rp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Done() == 0 {
		t.Fatal("the disconnected submission journaled no span")
	}

	// Resubmit the identical Spec: the daemon replays the journal and
	// executes only its gaps.
	executed.Store(0)
	payloads, err := coordnet.Submit(context.Background(), addr, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := executed.Load(), int64(c.Total-c.Done()); got != want {
		t.Errorf("resubmission executed %d trials, want the %d the journal left uncovered", got, want)
	}
	merged, err := harness.NewRunner().MergePayloads(spec, payloads)
	if err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	merged.Render(&resumed, "resumed")
	if !bytes.Equal(local.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed report differs from the local run:\n--- local ---\n%s--- resumed ---\n%s", local.Bytes(), resumed.Bytes())
	}
	// The report rounds; the aggregates must match at full precision.
	if want, got := typedAggregates(t, spec, payloads); !reflect.DeepEqual(want, got) {
		t.Errorf("resumed aggregate differs from the uninterrupted run:\n--- uninterrupted ---\n%#v\n--- resumed ---\n%#v", want, got)
	}

	shutdown()
	checkGoroutines(t, before)
}

// typedAggregates returns a fresh uninterrupted run's aggregate of the
// Spec and the typed merge of payloads, through the kind's Run*/Merge*
// entry points.
func typedAggregates(t *testing.T, spec harness.Spec, payloads [][]byte) (want, got any) {
	t.Helper()
	ctx := context.Background()
	var err error
	switch spec.Kind {
	case harness.SpecCampaign:
		parts := decodeAll(t, payloads, harness.DecodePartial)
		if want, err = harness.NewRunner().RunCampaign(ctx, spec); err == nil {
			got, err = harness.NewRunner().MergeCampaign(spec, parts)
		}
	case harness.SpecOverhead:
		parts := decodeAll(t, payloads, harness.DecodeOverheadPartial)
		if want, err = harness.NewRunner().RunOverhead(ctx, spec); err == nil {
			got, err = harness.NewRunner().MergeOverhead(spec, parts)
		}
	case harness.SpecConcurrent:
		parts := decodeAll(t, payloads, harness.DecodePartial)
		if want, err = harness.NewRunner().RunConcurrent(ctx, spec); err == nil {
			got, err = harness.NewRunner().MergeConcurrent(spec, parts)
		}
	default:
		t.Fatalf("no typed aggregate for a %s Spec", spec.Kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want, got
}

func decodeAll[P any](t *testing.T, payloads [][]byte, decode func(io.Reader) (P, error)) []P {
	t.Helper()
	parts := make([]P, len(payloads))
	for i, payload := range payloads {
		p, err := decode(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	return parts
}

// TestWorkerRejoinAfterSever: a worker whose socket the daemon severs
// redials and rejoins the fleet, restoring capacity without operator
// action — the reconnect half of reconnect/resume.
func TestWorkerRejoinAfterSever(t *testing.T) {
	srv, addr, shutdown := daemon(t, coordnet.ServerConfig{Chaos: 1})
	stopWorkers := joinWorkers(t, srv, addr, 1)
	defer func() {
		stopWorkers()
		shutdown()
	}()

	// The single worker gets the chaos knife on its first shard; after
	// the sever it must come back, and the submission must still finish.
	payloads, err := coordnet.Submit(context.Background(), addr, quickSpec("fig3.16"), nil)
	if err != nil {
		t.Fatal(err)
	}
	golden := unsharded(t, "fig3.16")
	if merged := mergePayloads(t, quickSpec("fig3.16"), payloads); !bytes.Equal(golden, merged) {
		t.Error("post-sever merge differs from unsharded run")
	}
	waitFleet(t, srv, 1)
}
