// Command perfbench is the repository's benchmark. One invocation runs
// one named workload — a seeded, count-bounded stream of Specs — and
// prints every metric by name and unit, ending with one JSON line. From
// the repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - campaign: one closed-loop client calling RunCampaign/RunOverhead
//     on a fresh Runner per Spec at Parallel 1; about one Spec in five
//     is an overhead measurement of a whole suite.
//   - concurrent: one closed-loop client calling RunConcurrent on a
//     fresh Runner per Spec at Parallel 1.
//   - fleet: an in-process dpmrd (coordnet.Server with one local worker
//     and a fresh journal root) on a Unix socket, one remote WorkerLoop
//     worker and one closed-loop Submit client that merges every result.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same Specs with spans around every layer call and reports
// the per-layer metrics. It keeps its scratch files under .bench_build/
// in the working directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpmr/internal/extlib"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

// specsPerSecond sets each workload's stream length: a run executes
// seconds × specsPerSecond Specs (at least minReports), rounded up to
// whole rounds of the stream's strata, so its length is fixed by its
// arguments, never by the clock, and every run draws each stratum
// equally often.
var specsPerSecond = map[string]float64{"campaign": 4.4, "concurrent": 4.4, "fleet": 12.4}

// minReports keeps at least minBeyond reports beyond the p90.
const minReports = 110

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// verifySample is how many fleet Specs are re-run in-process after the
// timed phase to check byte-identity with their merged fleet results.
const verifySample = 6

// scratchRoot holds every file a run writes, relative to the repository
// root.
const scratchRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists the traced run's metrics with their units, in report
// order; each is printed for every workload, zero where the workload's
// path does not reach the layer.
var perLayer = []struct{ name, unit string }{
	{"workloads.build_s", "s"},
	{"harness.golden_s", "s"},
	{"harness.plan_s", "s"},
	{"harness.trials_s", "s"},
	{"harness.modules_built", "count"},
	{"faultinject.apply_s", "s"},
	{"faultinject.sites", "count"},
	{"dpmr.transform_s", "s"},
	{"interp.compile_s", "s"},
	{"interp.compile_fallbacks", "count"},
	{"interp.exec_s", "s"},
	{"interp.steps", "count"},
	{"interp.ns_per_step", "ns"},
	{"interp.timeout_steps", "count"},
	{"interp.timeout_step_share", "ratio"},
	{"sched.run_s", "s"},
	{"sched.switches", "count"},
	{"sched.ns_per_switch", "ns"},
	{"consist.check_s", "s"},
	{"consist.events", "count"},
	{"consist.violations", "count"},
	{"harness.codec_s", "s"},
	{"harness.partial_bytes", "bytes"},
	{"harness.merge_s", "s"},
	{"harness.render_s", "s"},
	{"coord.shards", "count"},
	{"net.shard_s", "s"},
	{"net.self_s", "s"},
	{"journal.append_s", "s"},
	{"journal.appends", "count"},
	{"other.self_s", "s"},
	{"trace.wall_s", "s"},
	{"host.calib_ms", "ms"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: campaign, concurrent or fleet")
	seed := flag.Int64("seed", 1, "stream seed")
	seconds := flag.Int("seconds", 30, "nominal run length; fixes the number of Specs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if _, ok := specsPerSecond[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|concurrent|fleet --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env is a set-up workload: how to run one Spec, and how to tear down.
type env struct {
	run   func(ctx context.Context, i int, spec harness.Spec, tr *tracer) (report, error)
	close func() error
}

// setup generates the stream, runs the goldens of the workload's
// programs and, for the fleet, starts the daemon and waits for both
// workers to join.
func setup(workload string, seed int64, n int, dir string) ([]harness.Spec, env, error) {
	specs, err := stream(workload, seed, n)
	if err != nil {
		return nil, env{}, err
	}
	if workload == "concurrent" {
		if err := concurrentGoldens(specs[0]); err != nil {
			return nil, env{}, err
		}
	} else {
		r := harness.NewRunner()
		for _, w := range workloads.All() {
			if _, err := r.Golden(w); err != nil {
				return nil, env{}, err
			}
		}
	}
	if workload == "fleet" {
		f, err := startFleet(dir)
		if err != nil {
			return nil, env{}, err
		}
		return specs, env{run: f.run, close: f.stop}, nil
	}
	local := func(ctx context.Context, _ int, spec harness.Spec, tr *tracer) (report, error) {
		if tr != nil {
			return runLocalTraced(ctx, spec, tr)
		}
		return runLocal(ctx, spec)
	}
	return specs, env{run: local, close: func() error { return nil }}, nil
}

// concurrentGoldens runs the fault-free group of every concurrent
// workload at every thread count the stream uses.
func concurrentGoldens(spec harness.Spec) error {
	spec, err := spec.Normalized()
	if err != nil {
		return err
	}
	for _, w := range workloads.Concurrent() {
		for _, threads := range concurrentThreads {
			m := w.Build(threads)
			m.Freeze()
			res := sched.Run(m, sched.Config{Threads: threads, Seed: 1, TraceDisabled: true,
				VM: interp.Config{Externs: extlib.Base(), Mem: spec.Mem}})
			if c := res.Combined; c.Kind != interp.ExitNormal || c.Code != 0 {
				return fmt.Errorf("concurrent golden %s/%d: %v (%s)", w.Name, threads, c.Kind, c.Reason)
			}
		}
	}
	return nil
}

func run(workload string, seed int64, seconds int, traced bool) (*result, error) {
	calibBefore := calibrate()
	fmt.Printf("host.calib_ms before %.3f\n", calibBefore)
	fmt.Printf("workload %s seed %d seconds %d trace %v GOMAXPROCS %d\n", workload, seed, seconds, traced, runtime.GOMAXPROCS(0))
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n := max(minReports, int(float64(seconds)*specsPerSecond[workload]+0.5))
	n = (n + roundSize[workload] - 1) / roundSize[workload] * roundSize[workload]
	var specs []harness.Spec
	var e env
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		sub := filepath.Join(dir, "setup"+strconv.Itoa(k))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		specs, e, err = setup(workload, seed, n+1, sub)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { _ = e.close() }()

	ctx := context.Background()
	// One more Spec, drawn after the timed ones, warms the process up
	// and is discarded.
	if _, err := e.run(ctx, -1, specs[n], nil); err != nil {
		return nil, fmt.Errorf("warm-up spec: %w", err)
	}
	specs = specs[:n]

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := tr.begin("other.self_s")
	cpuBefore := cpuSeconds()
	start := time.Now()
	var latencies []float64
	reports := make([]report, len(specs))
	trials, failed := 0, 0
	for i, spec := range specs {
		if tr != nil {
			tr.spec = i
		}
		t0 := time.Now()
		rep, err := e.run(ctx, i, spec, tr)
		lat := time.Since(t0).Seconds()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: spec %d (%s): %v\n", i, spec.Kind, err)
			continue
		}
		latencies = append(latencies, lat)
		trials += rep.trials
		reports[i] = rep
	}
	wall := time.Since(start).Seconds()
	fmt.Printf("host: timed phase used %.3f s of CPU in %.3f s of wall\n", cpuSeconds()-cpuBefore, wall)
	tr.end(root)
	if err := e.close(); err != nil {
		return nil, err
	}

	correct := failed == 0
	if workload == "fleet" {
		if err := verifyFleet(ctx, seed, specs, reports); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fleet byte-identity:", err)
			correct = false
		}
	}
	digest := sha256.New()
	for _, rep := range reports {
		digest.Write(rep.text)
	}
	fmt.Printf("reports %d of %d specs, %d trials, wall %.3f s\n", len(latencies), len(specs), trials, wall)
	sum := hex.EncodeToString(digest.Sum(nil))
	fmt.Printf("report digest %s\n", sum)

	res := &result{Correct: correct, Attempted: len(specs), Failed: failed, Metrics: make(map[string]metric)}
	calibAfter := calibrate()
	fmt.Printf("host.calib_ms after %.3f\n", calibAfter)
	if traced {
		layerMetrics(res, tr, (calibBefore+calibAfter)/2)
		writeTrace(tr, workload, seed)
		if err := compareUntraced(workload, seed, untracedRun{wall, sum}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
		}
	} else {
		if err := endToEnd(res, latencies, trials, wall, setups); err != nil {
			return nil, err
		}
		if err := saveUntraced(workload, seed, untracedRun{wall, sum}); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedMetricNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("metric %s %g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

func endToEnd(res *result, latencies []float64, trials int, wall float64, setups []float64) error {
	p50, err := percentile(latencies, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(latencies, 90)
	if err != nil {
		return err
	}
	fmt.Printf("report latency samples %d, p50 and p90 by nearest rank\n", len(latencies))
	fmt.Printf("setup_s samples %v\n", setups)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	res.Metrics["trials_per_s"] = metric{float64(trials) / wall, "1/s"}
	res.Metrics["report_p50_s"] = metric{p50, "s"}
	res.Metrics["report_p90_s"] = metric{p90, "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	return nil
}

// layerMetrics turns the trace into the per-layer metrics: each span
// name's self time, the counters, and the ratios over their bases.
func layerMetrics(res *result, tr *tracer, calib float64) {
	self := selfTimes(tr.spans)
	total := 0.0
	for _, d := range self {
		total += d.Seconds()
	}
	v := make(map[string]float64)
	for name, d := range self {
		v[name] = d.Seconds()
	}
	for name, c := range tr.counts {
		v[name] = c
	}
	if v["interp.steps"] > 0 {
		v["interp.ns_per_step"] = v["interp.exec_s"] * 1e9 / v["interp.steps"]
		v["interp.timeout_step_share"] = v["interp.timeout_steps"] / v["interp.steps"]
	}
	if v["sched.switches"] > 0 {
		v["sched.ns_per_switch"] = v["sched.run_s"] * 1e9 / v["sched.switches"]
	}
	v["trace.wall_s"] = tr.spans[0].End.Seconds() - tr.spans[0].Start.Seconds()
	v["host.calib_ms"] = calib
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	fmt.Printf("trace: %d spans, self times sum to %.6f s of %.6f s traced wall\n", len(tr.spans), total, v["trace.wall_s"])
	fmt.Printf("trace: interp.timeout_step_share = %g timeout steps / %g steps\n", v["interp.timeout_steps"], v["interp.steps"])
	fmt.Printf("trace: sched.ns_per_switch over %g switches, interp.ns_per_step over %g steps\n", v["sched.switches"], v["interp.steps"])
}

// untracedRun is what an untraced run keeps for the traced run of the
// same workload and seed: its timed wall time and report digest.
type untracedRun struct {
	Wall   float64 `json:"wall"`
	Digest string  `json:"digest"`
}

func untracedFile(workload string, seed int64) string {
	return filepath.Join(scratchRoot, fmt.Sprintf("untraced-%s-%d.json", workload, seed))
}

func saveUntraced(workload string, seed int64, u untracedRun) error {
	data, err := json.Marshal(u)
	if err != nil {
		return err
	}
	return os.WriteFile(untracedFile(workload, seed), data, 0o644)
}

// compareUntraced checks the traced run against the last untraced run of
// the same workload and seed, when there is one: both must have rendered
// the same reports, and the difference of their wall times is the
// tracing overhead.
func compareUntraced(workload string, seed int64, traced untracedRun) error {
	data, err := os.ReadFile(untracedFile(workload, seed))
	if err != nil {
		fmt.Println("trace: no untraced run of this seed to compare with")
		return nil
	}
	var u untracedRun
	if err := json.Unmarshal(data, &u); err != nil {
		return fmt.Errorf("reading %s: %w", untracedFile(workload, seed), err)
	}
	if u.Digest != traced.Digest {
		return fmt.Errorf("traced report digest %s differs from the untraced run's %s", traced.Digest, u.Digest)
	}
	fmt.Printf("trace: report digest matches the untraced run; overhead %.3f s (traced wall %.3f s, untraced wall %.3f s)\n",
		traced.Wall-u.Wall, traced.Wall, u.Wall)
	return nil
}

// writeTrace writes the spans out.
func writeTrace(tr *tracer, workload string, seed int64) {
	path := filepath.Join(scratchRoot, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Printf("trace: spans written to %s\n", path)
}

// verifyFleet re-runs a seeded sample of the fleet's Specs in-process:
// each merged fleet result must equal the local one, and render to the
// same bytes.
func verifyFleet(ctx context.Context, seed int64, specs []harness.Spec, reports []report) error {
	picked := sampleIndices(seed, len(specs), verifySample)
	for _, i := range picked {
		if reports[i].campaign == nil {
			continue
		}
		cr, err := harness.NewRunner().RunCampaign(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("spec %d in-process: %w", i, err)
		}
		if !reflect.DeepEqual(cr, reports[i].campaign) {
			return fmt.Errorf("spec %d: merged fleet result differs from the in-process result", i)
		}
		var local strings.Builder
		renderCampaign(&local, cr)
		if local.String() != string(reports[i].text) {
			return fmt.Errorf("spec %d: fleet report bytes differ from the in-process report", i)
		}
	}
	fmt.Printf("fleet byte-identity checked on specs %v\n", picked)
	return nil
}

// sampleIndices picks k distinct indices of [0, n), seeded.
func sampleIndices(seed int64, n, k int) []int {
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	out := append([]int(nil), perm[:min(k, n)]...)
	sort.Ints(out)
	return out
}

func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// calibrate times a fixed pure-Go integer loop, in milliseconds: a
// reading of how fast the host ran, to read a run's numbers against.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	calibSink = x
	return ms
}

var calibSink uint64

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
