package main

// Seeded, count-bounded Spec streams. A stream is a pure function of
// (workload, seed, length): the same arguments always give the same
// Specs in the same order, with no program execution involved, so two
// runs of a seed — and two commits under comparison — execute identical
// work. Streams are built in rounds over fixed strata (the grid
// dimensions that move a Spec's cost the most), shuffled by the seed, so
// every seed draws the same mix of expensive and cheap cells; within a
// stratum the seed draws the remaining grid choices and a fixed cost
// table sizes the Spec towards a target duration, so latency
// percentiles are taken over one population of similarly sized reports.

import (
	"fmt"
	"math"
	"math/rand"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// targetMS is the estimated single-core execution time every generated
// Spec is sized towards; overhead Specs over a whole suite and all four
// workloads take about this long, so campaign and concurrent Specs are
// sized to match.
const targetMS = 220

// fleetTargetMS sizes the fleet's campaign Specs: half as large, so a
// run submits twice as many and prices the per-submission work —
// leasing, framing, journal creation and fsync, client-side merge —
// over more submissions.
const fleetTargetMS = targetMS / 2

// specWorkloads are the four SPEC analogues, in the paper's order.
var specWorkloads = []string{"art", "bzip2", "equake", "mcf"}

var injectKinds = []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree}

var designs = []dpmr.Design{dpmr.SDS, dpmr.MDS}

// Per workload and fault kind (indexed like injectKinds): siteCounts is
// the number of injectable sites (faultinject.Enumerate), stdMS the
// measured mean cost of one stdapp trial, and dpmrMS that of one trial
// of a DPMR variant of the diversity (index 0) or policy (index 1)
// suite, averaged over the suite and both designs. Costs include each
// trial's share of module builds, measured on a 2-core x86-64 host with
// the compiled engine. They only size Specs: a stale entry makes some
// Specs longer or shorter, never wrong.
var (
	siteCounts = map[string][2]int{"art": {6, 6}, "bzip2": {6, 9}, "equake": {4, 5}, "mcf": {1, 4}}
	stdMS      = map[string][2]float64{"art": {6.7, 5.7}, "bzip2": {3.3, 3.1}, "equake": {2.3, 4.0}, "mcf": {1.1, 27.5}}
	dpmrMS     = map[string][2][2]float64{
		"art":    {{5.7, 10.5}, {10.5, 11.7}},
		"bzip2":  {{3.2, 6.0}, {3.9, 5.4}},
		"equake": {{11, 6.9}, {4.0, 5.2}},
		"mcf":    {{1.4, 2.0}, {10, 2}},
	}
)

// perWorkloadMS is the fixed cost a fresh Runner pays per workload of a
// Spec: building, compiling and running its golden.
const perWorkloadMS = 8

// concurrentRunMS is the measured cost of one run of a concurrent Spec
// (its stdapp trial plus its DPMR trial) per workload and thread count
// 2, 3, 4, on the same host as stdMS.
var concurrentRunMS = map[string][3]float64{
	"chash":  {8, 11.5, 16.5},
	"cpipe":  {27, 50, 100},
	"csteal": {29, 42, 59},
}

var concurrentThreads = []int{2, 3, 4}

// suite returns the DPMR variants of the diversity (Figures 3.6–3.10)
// or policy (Figures 3.11–3.15) suite of a design, stdapp excluded.
func suite(design dpmr.Design, policy bool) []harness.Variant {
	vs := harness.DiversityVariants(design)
	if policy {
		vs = harness.PolicyVariants(design)
	}
	return vs[1:]
}

// campaignSpec draws one campaign Spec of the stratum (anchor workload,
// fault kind, design): the seed picks an optional partner workload, the
// suite, the DPMR variants and the run count; the site cap and variant
// count are then chosen so the estimated cost is closest to target.
func campaignSpec(rng *rand.Rand, target float64, anchor int, kind int, design dpmr.Design) harness.Spec {
	names := []string{specWorkloads[anchor]}
	runs := 1 + rng.Intn(2)
	policy := rng.Intn(2)
	// A workload too cheap to reach the target alone gets a partner;
	// others get one a third of the time.
	partner := 1 + rng.Intn(len(specWorkloads)-1)
	if estimateMS(names, kind, policy, runs, 4, 99) < target || rng.Intn(3) == 0 {
		names = append(names, specWorkloads[(anchor+partner)%len(specWorkloads)])
	}
	pool := suite(design, policy == 1)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	bestN, bestSites, bestErr := 0, 0, math.Inf(1)
	for n := 2; n <= 4; n++ {
		for sites := 1; sites <= 9; sites++ {
			if e := math.Abs(estimateMS(names, kind, policy, runs, n, sites) - target); e < bestErr-1e-9 {
				bestN, bestSites, bestErr = n, sites, e
			}
		}
	}
	ws := make([]workloads.Workload, len(names))
	for i, name := range names {
		ws[i], _ = workloads.ByName(name)
	}
	s := harness.CampaignSpec(injectKinds[kind], ws, append([]harness.Variant{harness.Stdapp()}, pool[:bestN]...))
	s.Runs = runs
	s.MaxSites = bestSites
	return s
}

// estimateMS is the cost-table estimate of a campaign Spec: per
// workload, its capped sites × runs trials of stdapp and of each DPMR
// variant of the suite.
func estimateMS(names []string, kind, policy, runs, dpmrVariants, maxSites int) float64 {
	ms := 0.0
	for _, name := range names {
		trials := float64(min(siteCounts[name][kind], maxSites) * runs)
		ms += perWorkloadMS + trials*(stdMS[name][kind]+float64(dpmrVariants)*dpmrMS[name][kind][policy])
	}
	return ms
}

// overheadSpec is the overhead measurement of a whole suite over all
// four workloads.
func overheadSpec(design dpmr.Design, policy bool) harness.Spec {
	ws := workloads.All()
	return harness.OverheadSpec(ws, append([]harness.Variant{harness.Stdapp()}, suite(design, policy)...))
}

// concurrentSpec draws one concurrent Spec of the stratum (workload,
// threads): stdapp plus one seeded SDS or MDS variant, a seeded base
// schedule, and as many runs as bring the estimate closest to targetMS.
func concurrentSpec(rng *rand.Rand, name string, ti int) harness.Spec {
	pool := suite(designs[rng.Intn(2)], rng.Intn(2) == 1)
	v := pool[rng.Intn(len(pool))]
	s := harness.ConcurrentSpec([]string{name}, []harness.Variant{harness.Stdapp(), v})
	s.Threads = concurrentThreads[ti]
	s.SchedSeed = 1 + rng.Int63n(1<<20)
	s.Runs = max(2, min(40, int(math.Round(targetMS/concurrentRunMS[name][ti]))))
	return s
}

// campaignRound is one round of the campaign workload: every (anchor
// workload, fault kind, design) stratum once, plus the four (design,
// suite) overhead measurements — one Spec in five — shuffled.
func campaignRound(rng *rand.Rand, target float64, withOverhead bool) []harness.Spec {
	var round []harness.Spec
	for anchor := range specWorkloads {
		for kind := range injectKinds {
			for _, d := range designs {
				round = append(round, campaignSpec(rng, target, anchor, kind, d))
			}
		}
	}
	if withOverhead {
		for _, d := range designs {
			round = append(round, overheadSpec(d, false), overheadSpec(d, true))
		}
	}
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// concurrentRound is one round of the concurrent workload: every
// (workload, threads) stratum once, shuffled.
func concurrentRound(rng *rand.Rand) []harness.Spec {
	var round []harness.Spec
	for _, cw := range workloads.Concurrent() {
		for ti := range concurrentThreads {
			round = append(round, concurrentSpec(rng, cw.Name, ti))
		}
	}
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// roundSize is the number of Specs in one round of each workload's
// stream.
var roundSize = map[string]int{
	"campaign":   len(specWorkloads)*len(injectKinds)*len(designs) + 2*len(designs),
	"concurrent": len(workloads.Concurrent()) * len(concurrentThreads),
	"fleet":      len(specWorkloads) * len(injectKinds) * len(designs),
}

// stream returns the workload's first n Specs for the seed. The fleet
// stream holds campaign Specs only, all with distinct fingerprints: the
// daemon journals campaign submissions by fingerprint and would replay a
// repeated Spec as a resume that executes nothing, so a repeated draw is
// replaced by the next draw.
func stream(workload string, seed int64, n int) ([]harness.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out []harness.Spec
	for len(out) < n {
		var round []harness.Spec
		switch workload {
		case "campaign":
			round = campaignRound(rng, targetMS, true)
		case "concurrent":
			round = concurrentRound(rng)
		case "fleet":
			round = campaignRound(rng, fleetTargetMS, false)
		default:
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		for _, s := range round {
			if workload == "fleet" {
				fp, err := s.Fingerprint()
				if err != nil {
					return nil, err
				}
				if seen[fp] {
					continue
				}
				seen[fp] = true
			}
			if len(out) < n {
				out = append(out, s)
			}
		}
	}
	return out, nil
}
