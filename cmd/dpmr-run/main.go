// Command dpmr-run executes one workload under one configuration and
// reports the outcome: exit status, output, cycles, and memory statistics.
// With -campaign it instead runs the full sites × runs injection grid for
// that workload/variant on the parallel campaign engine.
//
// Usage:
//
//	dpmr-run -workload mcf                               # golden run
//	dpmr-run -workload mcf -dpmr -design mds             # MDS, defaults
//	dpmr-run -workload art -dpmr -diversity rearrange-heap -policy "static 10%"
//	dpmr-run -workload bzip2 -dpmr -inject immediate-free -site 0
//	dpmr-run -workload mcf -dpmr -campaign -inject immediate-free -parallel 8
//
// A campaign's declarative flags (-workload, -dpmr, -design, -diversity,
// -policy, -inject, -runs) assemble a harness.Spec; -dump-spec prints
// its canonical JSON and -spec runs a campaign from such a file instead
// of the flags, byte-identical to the flag-driven run:
//
//	dpmr-run -campaign -dump-spec -workload mcf -inject immediate-free > c.json
//	dpmr-run -campaign -spec c.json
//
// Campaigns shard across processes: each shard runs a contiguous slice
// of the canonical trial plan and writes a partial result, and -merge
// reassembles the summary exactly as a single-process run would compute
// it:
//
//	dpmr-run -workload mcf -campaign -inject immediate-free -shard 0/3 -out p0.json
//	dpmr-run -workload mcf -campaign -inject immediate-free -shard 1/3 -out p1.json
//	dpmr-run -workload mcf -campaign -inject immediate-free -shard 2/3 -out p2.json
//	dpmr-run -workload mcf -campaign -inject immediate-free -merge p0.json p1.json p2.json
//
// With -coord the sharding runs under a supervising coordinator: the
// plan is cut into -coord-shards slices, leased to a worker fleet
// (in-process goroutines, or spawned `dpmr-run -worker` processes with
// -coord-spawn), stragglers and crashes are retried, and the merged
// summary prints in one command. Every coord.Assignment carries the
// Spec, so a worker process's argv holds only execution policy. A
// worker keeps each workload's base module across assignments and
// releases each injected module after its shard's last trial that
// needs it, as every campaign run does (-progress shows the residency):
//
//	dpmr-run -workload mcf -campaign -inject immediate-free -coord 4
//
// With -remote the campaign is submitted to a running dpmrd daemon over
// TCP or a Unix socket; the daemon's persistent fleet runs the shards,
// typed progress events stream back, and the shard payloads are merged
// locally — byte-identical to running the same campaign here:
//
//	dpmr-run -workload mcf -campaign -inject immediate-free -remote 127.0.0.1:9021
//
// Naming a concurrent workload (chash, cpipe, csteal) runs a concurrent
// campaign instead: -threads VMs share one address space under the
// deterministic interleaving scheduler, run rn explores schedule
// -sched-seed+rn, and every trial's memory trace passes through the
// offline consistency checker — the ConsistViol report column. There is
// no injection axis; the schedule is the fault model. All campaign
// machinery (-shard/-merge/-coord/-journal/-resume/-remote, -spec files)
// applies unchanged:
//
//	dpmr-run -workload chash -campaign -threads 3 -sched-seed 1 -parallel 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"dpmr/internal/coord"
	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/dpmr"
	"dpmr/internal/dsa"
	"dpmr/internal/extlib"
	"dpmr/internal/failpt"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/journal"
	"dpmr/internal/prof"
	"dpmr/internal/workloads"
)

func main() {
	// Interrupts cancel the context: a mid-campaign Ctrl-C stops
	// dispatch, drains in-flight trials, and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpmr-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "mcf", "workload: art, bzip2, equake, mcf — or a concurrent group: chash, cpipe, csteal (with -campaign)")
		useDPMR    = fs.Bool("dpmr", false, "apply the DPMR transformation")
		inject     = fs.String("inject", "", "fault to inject: heap-array-resize or immediate-free")
		site       = fs.Int("site", 0, "allocation site id for the injection")
		seed       = fs.Int64("seed", 1, "VM seed (diversity randomness)")
		useDSA     = fs.Bool("dsa", false, "use the Chapter 5 DSA-refined pipeline")
		listSites  = fs.Bool("sites", false, "list injectable allocation sites and exit")
		showIR     = fs.Bool("dump-ir", false, "print the module IR instead of running")
		campaign   = fs.Bool("campaign", false, "run the full sites × runs injection campaign for this workload/variant")
		specFile   = fs.String("spec", "", "run the campaign described by this JSON spec file instead of the declarative flags (with -campaign)")
		dumpSpec   = fs.Bool("dump-spec", false, "print the campaign's canonical JSON spec and exit (the -spec file format; with -campaign)")
		parallel   = fs.Int("parallel", 1, "campaign worker goroutines (with -campaign)")
		runs       = fs.Int("runs", 2, "runs per injection site (with -campaign)")
		progress   = fs.Bool("progress", false, "report campaign progress and module-cache residency on stderr (with -campaign)")
		shard      = fs.String("shard", "", "run campaign shard i/N and write a partial result (with -campaign)")
		outPath    = fs.String("out", "", "partial-result output file with -shard (default stdout)")
		merge      = fs.Bool("merge", false, "merge campaign partial-result files (the positional arguments; with -campaign)")
		journalDir = fs.String("journal", "", "journal completed trial spans to this `dir` and write a progressive report there (with -campaign)")
		resume     = fs.Bool("resume", false, "resume the campaign from an existing -journal directory, re-running only the missing trials")
		opStats    = fs.String("opstats", "", "write the executed opcode-pair/triple histogram as JSON to `file` (\"-\" = stdout; single runs only, runs on the reference interpreter)")
		remote     = fs.String("remote", "", "submit the campaign to the dpmrd campaign service at this `addr` and merge the streamed shard results locally (with -campaign)")
		threads    = fs.Int("threads", 3, "VM count of a concurrent workload group (with a concurrent -campaign)")
		schedSeed  = fs.Int64("sched-seed", 1, "base interleaving-schedule seed; run rn explores schedule sched-seed+rn (with a concurrent -campaign)")
	)
	var vf harness.VariantFlags
	vf.Register(fs)
	var cf coord.CLIFlags
	cf.Register(fs, "campaign", "worker mode: serve shard assignments from stdin (JSON lines carrying the spec; normally spawned by a coordinator)")
	var pf prof.Flags
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpmr-run:", err)
		return 2
	}
	if sched, err := failpt.ArmFromEnv(); err != nil {
		return fail(fmt.Errorf("%s: %w", failpt.EnvVar, err))
	} else if sched != "" {
		fmt.Fprintf(stderr, "dpmr-run: failpoints armed from %s: %s\n", failpt.EnvVar, sched)
	}

	// A concurrent group name selects the scheduler-driven concurrent
	// campaign kind; everything downstream branches on the Spec's kind,
	// so a -spec file can select it too.
	w, err := workloads.ByName(*workload)
	var cw workloads.ConcurrentWorkload
	concurrent := false
	if err != nil {
		gw, gerr := workloads.ConcurrentByName(*workload)
		if gerr != nil {
			return fail(err)
		}
		cw, concurrent = gw, true
	}
	if concurrent && !*campaign {
		return fail(fmt.Errorf("concurrent workload %s runs under the interleaving scheduler; use -campaign (there is no single-run mode for scheduled groups)", cw.Name))
	}
	if concurrent && *listSites {
		return fail(fmt.Errorf("-sites applies to sequential workloads (concurrent campaigns take no injection)"))
	}

	if *listSites {
		for _, kind := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
			for _, s := range faultinject.Enumerate(w.Build(), kind) {
				fmt.Fprintf(stdout, "%s\n", s)
			}
		}
		return 0
	}

	var injectKind faultinject.Kind
	if *inject != "" {
		switch *inject {
		case "heap-array-resize":
			injectKind = faultinject.HeapArrayResize
		case "immediate-free":
			injectKind = faultinject.ImmediateFree
		default:
			return fail(fmt.Errorf("unknown injection %q", *inject))
		}
	}

	if !*campaign && !cf.Worker {
		if *shard != "" {
			return fail(fmt.Errorf("-shard requires -campaign"))
		}
		if *merge {
			return fail(fmt.Errorf("-merge requires -campaign"))
		}
		if cf.Enabled() {
			return fail(fmt.Errorf("-coord requires -campaign"))
		}
		if *specFile != "" || *dumpSpec {
			return fail(fmt.Errorf("-spec and -dump-spec require -campaign"))
		}
		if *journalDir != "" || *resume {
			return fail(fmt.Errorf("-journal and -resume require -campaign"))
		}
		if *remote != "" {
			return fail(fmt.Errorf("-remote requires -campaign (dpmrd runs campaign specs)"))
		}
		var concFlag error
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "threads" || f.Name == "sched-seed" {
				concFlag = fmt.Errorf("-%s requires a concurrent -campaign", f.Name)
			}
		})
		if concFlag != nil {
			return fail(concFlag)
		}
	}
	if *resume && *journalDir == "" {
		return fail(fmt.Errorf("-resume requires -journal (the directory holding the journal to continue)"))
	}
	if cf.Worker {
		// A worker serves whatever Spec each assignment carries; pinning
		// it to one campaign — or combining it with another mode — would
		// only invite drift.
		for flag, on := range map[string]bool{
			"-campaign": *campaign, "-merge": *merge, "-shard": *shard != "",
			"-coord": cf.Enabled(), "-spec": *specFile != "", "-journal": *journalDir != "",
			"-remote": *remote != "",
		} {
			if on {
				return fail(fmt.Errorf("%s and -worker are mutually exclusive (assignments carry the spec)", flag))
			}
		}
	}
	if *outPath != "" && *shard == "" {
		return fail(fmt.Errorf("-out requires -shard (merged and unsharded summaries go to stdout)"))
	}
	if err := cf.Validate(fs); err != nil {
		return fail(err)
	}
	// Validate the remaining usage constraints (parsing each input once)
	// before profiling starts, so a usage error cannot truncate an
	// existing profile file: -cpuprofile is only created once the
	// invocation is known-valid.
	var shardSpec harness.ShardSpec
	if *shard != "" {
		spec, err := harness.ParseShard(*shard)
		if err != nil {
			return fail(err)
		}
		shardSpec = spec
	}
	variant := harness.Stdapp()
	if *useDPMR {
		variant, err = vf.Variant()
		if err != nil {
			return fail(err)
		}
	}
	var spec harness.Spec
	if *campaign {
		// The campaign engine drives every site with per-run seeds; the
		// single-run-only flags would be silently ignored, so refuse them.
		if *useDSA {
			return fail(fmt.Errorf("-campaign does not support the -dsa pipeline"))
		}
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" || f.Name == "site" || f.Name == "dump-ir" || f.Name == "opstats" {
				conflict = fmt.Errorf("-%s only applies to single runs, not -campaign", f.Name)
			}
			if !concurrent && *specFile == "" && (f.Name == "threads" || f.Name == "sched-seed") {
				conflict = fmt.Errorf("-%s only applies to concurrent campaigns", f.Name)
			}
		})
		if conflict != nil {
			return fail(conflict)
		}
		modes := 0
		for _, on := range []bool{*merge, *shard != "", cf.Enabled(), *remote != ""} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			return fail(fmt.Errorf("-merge, -shard, -coord, and -remote are mutually exclusive"))
		}
		if *journalDir != "" && (*merge || *shard != "") {
			return fail(fmt.Errorf("-journal is incompatible with -shard and -merge (the journal replaces manual shard files)"))
		}
		if *journalDir != "" && *remote != "" {
			return fail(fmt.Errorf("-journal is incompatible with -remote (a remote campaign journals on the daemon)"))
		}
		if *merge && len(fs.Args()) == 0 {
			return fail(fmt.Errorf("-merge needs the partial-result files as arguments"))
		}
		if *specFile == "" && injectKind == 0 && !concurrent {
			return fail(fmt.Errorf("-campaign requires -inject heap-array-resize or immediate-free (or a -spec file, or a concurrent workload)"))
		}
		// The declarative flags assemble the Spec; -spec replaces them
		// (mixing the two is refused inside ParseSpecFlags).
		var base harness.Spec
		if concurrent {
			if injectKind != 0 {
				return fail(fmt.Errorf("-inject does not apply to concurrent campaigns (the interleaving schedule is the fault axis)"))
			}
			base = harness.ConcurrentSpec([]string{cw.Name}, []harness.Variant{variant})
			base.Threads = *threads
			base.SchedSeed = *schedSeed
		} else {
			base = harness.CampaignSpec(injectKind, []workloads.Workload{w}, []harness.Variant{variant})
		}
		base.Runs = *runs
		spec, err = harness.ParseSpecFlags(fs, *specFile, base,
			"workload", "dpmr", "design", "diversity", "policy", "inject", "runs", "threads", "sched-seed")
		if err != nil {
			return fail(err)
		}
		switch spec.Kind {
		case harness.SpecCampaign, harness.SpecConcurrent:
		default:
			return fail(fmt.Errorf("-spec %s: dpmr-run runs campaign and concurrent specs, got kind %q (use dpmr-exp for experiments)", *specFile, spec.Kind))
		}
		if *dumpSpec {
			if err := spec.Encode(stdout); err != nil {
				return execFail(stderr, err)
			}
			return 0
		}
	}
	profStop, perr := pf.Start()
	if perr != nil {
		// Profile-file I/O failure is a run failure (exit 1), not
		// command-line misuse.
		return execFail(stderr, perr)
	}
	defer func() {
		// Profile flushing failures can't change the exit code from a
		// defer; surface them loudly instead of dropping them.
		if err := profStop(); err != nil {
			fmt.Fprintln(stderr, "dpmr-run:", err)
		}
	}()

	if cf.Worker {
		// One Runner for the worker's lifetime: shards leased to this
		// worker reuse its base modules and goldens, while injected
		// modules leave after their last trial. The spec arrives with
		// each assignment — argv carries none of it.
		local := coord.NewLocal(harness.Options{Parallel: *parallel})
		err := coord.Serve(stdin, stdout, func(spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
			return local.Payload(ctx, spec, shard)
		})
		if err != nil {
			return execFail(stderr, err)
		}
		return 0
	}
	if *campaign {
		if *parallel < 1 {
			// Options reads 0 as its serial default; the flag has no default
			// to fall back on, so a non-positive count is refused.
			return execFail(stderr, fmt.Errorf("-parallel %d: campaigns need at least 1 worker", *parallel))
		}
		opts := harness.Options{Parallel: *parallel, Shard: shardSpec}
		if *progress {
			opts.Events = harness.RenderProgress(stderr, "campaign")
		}
		return runCampaign(ctx, campaignArgs{
			spec: spec, opts: opts, progress: *progress, outPath: *outPath,
			merge: *merge, mergeFiles: fs.Args(),
			journalDir: *journalDir, resume: *resume,
			remote:     *remote,
			coordFlags: cf,
			stdout:     stdout, stderr: stderr,
		})
	}

	m := w.Build()
	if *inject != "" {
		var found bool
		for _, s := range faultinject.Enumerate(m, injectKind) {
			if s.ID == *site {
				fm, err := faultinject.Apply(m, s)
				if err != nil {
					return fail(err)
				}
				m = fm
				found = true
				break
			}
		}
		if !found {
			return fail(fmt.Errorf("no injectable %s site %d (try dpmr-run -workload %s -sites)", injectKind, *site, *workload))
		}
	}

	externs := extlib.Base()
	if *useDPMR {
		cfg := dpmr.Config{Design: variant.Design, Diversity: variant.Diversity, Policy: variant.Policy}
		if *useDSA {
			var res *dsa.Result
			m, res, err = dsa.Transform(m, cfg)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "dsa:     %s; excluded sites %v\n", res.Stats(), res.ExcludedSites())
		} else {
			m, err = dpmr.Transform(m, cfg)
			if err != nil {
				return fail(err)
			}
		}
		externs = extlib.Wrapped(variant.Design)
	}

	if *showIR {
		fmt.Fprint(stdout, m.String())
		return 0
	}

	var prog *interp.Program
	if *opStats == "" {
		m.Freeze()
		// A compile failure is not fatal — the run simply proceeds on the
		// reference tree-walker with identical results, matching the
		// harness's fallback behavior.
		if p, err := interp.Compile(m); err == nil {
			prog = p
		}
	}
	var stats *interp.OpStats
	if *opStats != "" {
		// Opcode profiling instruments the reference tree-walker (results
		// stay bit-identical; only speed differs), so the compile is skipped
		// above — the VM would not bind it anyway.
		stats = interp.NewOpStats()
	}
	res := interp.Run(m, interp.Config{Externs: externs, Seed: *seed, StepLimit: 2_000_000_000, Prog: prog, OpStats: stats})
	if stats != nil {
		out := stdout
		var f *os.File
		if *opStats != "-" {
			f, err = os.Create(*opStats)
			if err != nil {
				return execFail(stderr, err)
			}
			out = f
		}
		if err := stats.WriteJSON(out); err != nil {
			if f != nil {
				f.Close()
			}
			return execFail(stderr, err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return execFail(stderr, err)
			}
		}
	}
	fmt.Fprintf(stdout, "exit:    %v (code %d) %s\n", res.Kind, res.Code, res.Reason)
	fmt.Fprintf(stdout, "steps:   %d\n", res.Steps)
	fmt.Fprintf(stdout, "cycles:  %d\n", res.Cycles)
	fmt.Fprintf(stdout, "heap:    %d allocs, %d frees, peak %d bytes\n",
		res.Mem.HeapAllocs, res.Mem.HeapFrees, res.Mem.HeapPeak)
	if res.FaultSeen {
		fmt.Fprintf(stdout, "fault:   first executed at cycle %d\n", res.FaultCycle)
	}
	fmt.Fprintf(stdout, "output:\n%s", res.Output)
	if res.Kind != interp.ExitNormal {
		return 1
	}
	return 0
}

// campaignArgs bundles the -campaign mode's resolved inputs: the
// declarative Spec plus its execution policy, whose Shard is the -shard
// flag and whose Events render -progress.
type campaignArgs struct {
	spec            harness.Spec
	opts            harness.Options
	progress, merge bool
	outPath         string
	mergeFiles      []string
	journalDir      string
	resume          bool
	remote          string
	coordFlags      coord.CLIFlags
	stdout, stderr  io.Writer
}

// mergeAndPrint merges shard payloads with the Spec's merge and prints
// the summary — the tail the -merge, -coord, and -remote arms share.
func mergeAndPrint(a campaignArgs, payloads [][]byte, how string) int {
	res, err := harness.NewRunner().MergePayloads(a.spec, payloads)
	if err != nil {
		return execFail(a.stderr, err)
	}
	res.Render(a.stdout, how)
	return 0
}

// usageFail reports command-line misuse (bad flags, names, or flag
// combinations): exit 2. Failures of the run itself — campaign
// execution, partial-file I/O, merge validation, a fleet that cannot
// finish — exit 1 via execFail, matching dpmr-exp and dpmrc.
func usageFail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmr-run:", err)
	return 2
}

func execFail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmr-run:", err)
	return 1
}

// runSession runs a streaming Session of the campaign to completion,
// its progress going to the options' event sink — the context-first
// path the sharded and unsharded arms share. A nonzero code means the
// failure was already reported.
func runSession(ctx context.Context, a campaignArgs) (harness.Result, int) {
	s, err := harness.Start(ctx, a.spec, nil, a.opts)
	if err != nil {
		return harness.Result{}, usageFail(a.stderr, err)
	}
	res, err := s.Drain(nil)
	if err != nil {
		return harness.Result{}, execFail(a.stderr, err)
	}
	return res, 0
}

// runCampaign executes the campaign Spec on the streaming Session API —
// whole, as one shard writing a partial result, merging shard partials,
// scheduled on a coordinator fleet, against a journal, or on a remote
// daemon — and prints the summary.
func runCampaign(ctx context.Context, a campaignArgs) int {
	runFail := func(err error) int { return execFail(a.stderr, err) }

	switch {
	case a.remote != "":
		var sink func(harness.Event)
		if a.progress {
			sink = harness.RenderProgress(a.stderr, "campaign@"+a.remote)
		}
		// The daemon schedules the shards on its fleet (and journals them
		// if it runs with -journal); the client-side merge recomputes the
		// summary from the exact tiling, so the report is byte-identical
		// to a local run no matter how the fleet carved it up.
		payloads, err := coordnet.Submit(ctx, a.remote, a.spec, sink)
		if err != nil {
			return runFail(err)
		}
		return mergeAndPrint(a, payloads, fmt.Sprintf("%d shards via dpmrd", len(payloads)))
	case a.journalDir != "":
		return runJournaled(ctx, a)
	case a.coordFlags.Enabled():
		payloads, err := coord.Run(ctx, a.fleet())
		if err != nil {
			return runFail(err)
		}
		return mergeAndPrint(a, payloads, fmt.Sprintf("%d shards via %d workers", len(payloads), a.coordFlags.Workers))
	case !a.opts.Shard.IsZero():
		res, code := runSession(ctx, a)
		if code != 0 {
			return code
		}
		out := a.stdout
		var f *os.File
		if a.outPath != "" && a.outPath != "-" {
			var err error
			if f, err = os.Create(a.outPath); err != nil {
				return runFail(err)
			}
			out = f
		}
		lo, hi, total, err := res.EncodePartial(out)
		if err != nil {
			if f != nil {
				f.Close()
			}
			return runFail(err)
		}
		// A close error (deferred flush, ENOSPC) would leave a truncated
		// partial behind a zero exit; surface it.
		if f != nil {
			if err := f.Close(); err != nil {
				return runFail(err)
			}
		}
		fmt.Fprintf(a.stderr, "shard %s: trials [%d, %d) of %d\n", a.opts.Shard, lo, hi, total)
		return 0
	case a.merge:
		payloads := make([][]byte, len(a.mergeFiles))
		for i, name := range a.mergeFiles {
			data, err := os.ReadFile(name)
			if err != nil {
				return runFail(err)
			}
			payloads[i] = data
		}
		return mergeAndPrint(a, payloads, fmt.Sprintf("%d shards", len(payloads)))
	}

	res, code := runSession(ctx, a)
	if code != 0 {
		return code
	}
	res.Render(a.stdout, fmt.Sprintf("%d workers", a.opts.Parallel))
	fmt.Fprintf(a.stdout, "modules:    %d built, peak %d resident, %d evicted\n",
		res.Stats.Builds, res.Stats.Peak, res.Stats.Evicted)
	return 0
}

// fleet is the coordinator configuration the -coord arms share. Every
// assignment carries the Spec, so spawned `dpmr-run -worker` processes
// take only execution policy on argv, and each in-process fleet slot
// keeps a warm Runner of its own.
func (a campaignArgs) fleet() coord.Config {
	return a.coordFlags.Fleet(a.spec, a.opts, a.progress, a.stderr)
}

// writeJournaledSummary renders the journaled summary: the standard
// block, plus a trailing progress comment only while trials are still
// missing — so the final progressive report file is byte-identical to
// the summary an uninterrupted run prints on stdout.
func writeJournaledSummary(w io.Writer, res harness.Result, done, total int) {
	res.Render(w, "journaled")
	if done < total {
		fmt.Fprintf(w, "# journal: %d of %d trials\n", done, total)
	}
}

// writeReport re-renders the journal directory's progressive report.
func writeReport(dir string, res harness.Result, done, total int) error {
	return journal.WriteReport(dir, func(w io.Writer) error {
		writeJournaledSummary(w, res, done, total)
		return nil
	})
}

// runJournaled executes the campaign against a -journal directory:
// replayed coverage is skipped, each completed span is made durable
// before it counts, the progressive report re-renders after replay and
// as spans land, and the final summary is byte-identical to a run that
// was never interrupted. Under -coord the journal's gaps are cut into
// adaptively sized spans and leased to the fleet.
func runJournaled(ctx context.Context, a campaignArgs) int {
	j, prior, err := harness.OpenJournal(a.journalDir, a.resume, a.spec)
	if err != nil {
		return usageFail(a.stderr, err)
	}
	defer j.Close()
	var res harness.Result
	var replayed, total int
	how := ""
	if a.coordFlags.Enabled() {
		c, err := a.opts.Apply().Resume(a.spec, j, prior)
		if err != nil {
			return execFail(a.stderr, err)
		}
		replayed, total = c.Done(), c.Total
		if err := writeReport(a.journalDir, c.Snapshot(), replayed, total); err != nil {
			return execFail(a.stderr, err)
		}
		cfg := a.fleet()
		cfg.Resume = c
		// -coord-shards overrides the default span count; the cut itself
		// stays a pure function of (journal, Spec, span count) — never of
		// the worker count.
		if a.coordFlags.Shards == 0 {
			cfg.Shards = harness.DefaultResumeSpans
		}
		cfg.OnResult = func(harness.ShardSpec, []byte) error {
			if c.Done() == replayed {
				return nil // a replayed span: the report above shows it
			}
			return writeReport(a.journalDir, c.Snapshot(), c.Done(), total)
		}
		if _, err := coord.Run(ctx, cfg); err != nil {
			return execFail(a.stderr, err)
		}
		if res, err = c.Merge(); err != nil {
			return execFail(a.stderr, err)
		}
		how = fmt.Sprintf(" via %d workers", a.coordFlags.Workers)
	} else {
		var snapErr error
		var executed int
		res, executed, err = a.opts.Apply().RunJournaled(ctx, a.spec, j, prior, harness.DefaultResumeSpans,
			func(snapshot harness.Result, done, planTotal int) {
				total = planTotal
				if werr := writeReport(a.journalDir, snapshot, done, planTotal); werr != nil && snapErr == nil {
					snapErr = werr
				}
			})
		if err != nil {
			return execFail(a.stderr, err)
		}
		if snapErr != nil {
			return execFail(a.stderr, snapErr)
		}
		replayed = total - executed
	}
	fmt.Fprintf(a.stderr, "journal: replayed %d trials, executed %d%s\n", replayed, total-replayed, how)
	warnDegraded(a.stderr, j)
	writeJournaledSummary(a.stdout, res, total, total)
	return 0
}

// warnDegraded tells the operator when a journaled campaign finished on
// a journal that went lossy mid-run: the results in hand are complete
// and correct, but the journal cannot seed a resume — silence here would
// surface much later as a refused -resume with no context.
func warnDegraded(stderr io.Writer, j *journal.Journal) {
	if derr := j.Degraded(); derr != nil {
		fmt.Fprintf(stderr, "dpmr-run: WARNING: the campaign completed, but the journal degraded and cannot be resumed: %v\n", derr)
	}
}
