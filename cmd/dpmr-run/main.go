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
// -merge also takes directories and glob patterns ('parts/', 'p*.json'),
// as dpmr-exp's does; each shard reports its trial range on stderr.
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
// Under -progress every shard of a fleet prints one line: from the
// fleet's results under -coord, from the daemon's stream under -remote.
// -journal makes a campaign crash-safe and resumable with -resume, in
// process or under -coord. The execution flags and their exit codes (2
// for misuse, 1 for a failed run) are shared with dpmr-exp through
// internal/cli.
//
// Naming a concurrent workload (chash, cpipe, csteal) runs a concurrent
// campaign instead: -threads VMs share one address space under the
// deterministic interleaving scheduler, run rn explores schedule
// -sched-seed+rn, and every trial's shared-memory accesses pass through
// the streaming consistency check — the ConsistViol report column. There is
// no injection axis; the schedule is the fault model. All campaign
// machinery (-shard/-merge/-coord/-journal/-resume/-remote, -spec files)
// applies unchanged:
//
//	dpmr-run -workload chash -campaign -threads 3 -sched-seed 1 -parallel 8
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"

	"dpmr/internal/cli"
	"dpmr/internal/dpmr"
	"dpmr/internal/dsa"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
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
		workload  = fs.String("workload", "mcf", "workload: art, bzip2, equake, mcf — or a concurrent group: chash, cpipe, csteal (with -campaign)")
		useDPMR   = fs.Bool("dpmr", false, "apply the DPMR transformation")
		inject    = fs.String("inject", "", "fault to inject: heap-array-resize or immediate-free")
		site      = fs.Int("site", 0, "allocation site id for the injection")
		seed      = fs.Int64("seed", 1, "VM seed (diversity randomness)")
		useDSA    = fs.Bool("dsa", false, "use the Chapter 5 DSA-refined pipeline")
		listSites = fs.Bool("sites", false, "list injectable allocation sites and exit")
		showIR    = fs.Bool("dump-ir", false, "print the module IR instead of running")
		campaign  = fs.Bool("campaign", false, "run the full sites × runs injection campaign for this workload/variant")
		runs      = fs.Int("runs", 2, "runs per injection site (with -campaign)")
		opStats   = fs.String("opstats", "", "write the executed opcode-pair/triple histogram as JSON to `file` (\"-\" = stdout; single runs only, runs on the reference interpreter)")
		threads   = fs.Int("threads", 3, "VM count of a concurrent workload group (with a concurrent -campaign)")
		schedSeed = fs.Int64("sched-seed", 1, "base interleaving-schedule seed; run rn explores schedule sched-seed+rn (with a concurrent -campaign)")
	)
	var vf harness.VariantFlags
	vf.Register(fs)
	a := cli.New(fs, stdin, stdout, stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int { return a.Exit(cli.Usage(fmt.Errorf(format, args...))) }

	// A concurrent group name selects the scheduler-driven concurrent
	// campaign kind; everything downstream branches on the Spec's kind,
	// so a -spec file can select it too.
	w, err := workloads.ByName(*workload)
	var cw workloads.ConcurrentWorkload
	concurrent := false
	if err != nil {
		gw, gerr := workloads.ConcurrentByName(*workload)
		if gerr != nil {
			return a.Exit(cli.Usage(err))
		}
		cw, concurrent = gw, true
	}
	if concurrent && !*campaign {
		return usage("concurrent workload %s runs under the interleaving scheduler; use -campaign (there is no single-run mode for scheduled groups)", cw.Name)
	}
	if concurrent && *listSites {
		return usage("-sites applies to sequential workloads (concurrent campaigns take no injection)")
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
	switch *inject {
	case "":
	case "heap-array-resize":
		injectKind = faultinject.HeapArrayResize
	case "immediate-free":
		injectKind = faultinject.ImmediateFree
	default:
		return usage("unknown injection %q", *inject)
	}

	// Every execution flag belongs to a campaign (or a worker), and the
	// single-run flags to a single run: either would be silently ignored.
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "threads", "sched-seed":
			if !*campaign && !a.Coord.Worker {
				conflict = fmt.Errorf("-%s requires a concurrent -campaign", f.Name)
			} else if *campaign && !concurrent && a.SpecFile == "" {
				conflict = fmt.Errorf("-%s only applies to concurrent campaigns", f.Name)
			}
		case "seed", "site", "dump-ir", "opstats":
			if *campaign {
				conflict = fmt.Errorf("-%s only applies to single runs, not -campaign", f.Name)
			}
		}
	})
	if !*campaign && !a.Coord.Worker {
		switch m := a.Mode(); {
		case m == "-journal" || a.Resume:
			return usage("-journal and -resume require -campaign")
		case m != "":
			return usage("%s requires -campaign", m)
		case a.SpecFile != "" || a.DumpSpec:
			return usage("-spec and -dump-spec require -campaign")
		}
	}
	if conflict != nil {
		return a.Exit(cli.Usage(conflict))
	}
	if *campaign && a.Coord.Worker {
		// A worker serves whatever Spec each assignment carries.
		return usage("-campaign and -worker are mutually exclusive (assignments carry the spec)")
	}
	if err := a.Check(); err != nil {
		return a.Exit(err)
	}
	variant := harness.Stdapp()
	if *useDPMR {
		if variant, err = vf.Variant(); err != nil {
			return a.Exit(cli.Usage(err))
		}
	}
	var spec harness.Spec
	if *campaign {
		if *useDSA {
			return usage("-campaign does not support the -dsa pipeline")
		}
		if a.SpecFile == "" && injectKind == 0 && !concurrent {
			return usage("-campaign requires -inject heap-array-resize or immediate-free (or a -spec file, or a concurrent workload)")
		}
		// The declarative flags assemble the Spec; -spec replaces them
		// (mixing the two is refused inside ParseSpecFlags).
		var base harness.Spec
		if concurrent {
			if injectKind != 0 {
				return usage("-inject does not apply to concurrent campaigns (the interleaving schedule is the fault axis)")
			}
			base = harness.ConcurrentSpec([]string{cw.Name}, []harness.Variant{variant})
			base.Threads = *threads
			base.SchedSeed = *schedSeed
		} else {
			base = harness.CampaignSpec(injectKind, []workloads.Workload{w}, []harness.Variant{variant})
		}
		base.Runs = *runs
		spec, err = harness.ParseSpecFlags(fs, a.SpecFile, base,
			"workload", "dpmr", "design", "diversity", "policy", "inject", "runs", "threads", "sched-seed")
		if err != nil {
			return a.Exit(cli.Usage(err))
		}
		switch spec.Kind {
		case harness.SpecCampaign, harness.SpecConcurrent:
		default:
			return usage("-spec %s: dpmr-run runs campaign and concurrent specs, got kind %q (use dpmr-exp for experiments)", a.SpecFile, spec.Kind)
		}
	}
	if *campaign || a.Coord.Worker {
		return a.Exit(a.Run(ctx, spec))
	}
	stop, err := a.Profile()
	if err != nil {
		return a.Exit(err)
	}
	defer stop()
	m := w.Build()
	if *inject != "" {
		sites := faultinject.Enumerate(m, injectKind)
		i := slices.IndexFunc(sites, func(s faultinject.Site) bool { return s.ID == *site })
		if i < 0 {
			return usage("no injectable %s site %d (try dpmr-run -workload %s -sites)", injectKind, *site, *workload)
		}
		if m, err = faultinject.Apply(m, sites[i]); err != nil {
			return a.Exit(cli.Usage(err))
		}
	}

	externs := extlib.Base()
	if *useDPMR {
		cfg := dpmr.Config{Design: variant.Design, Diversity: variant.Diversity, Policy: variant.Policy}
		if *useDSA {
			var res *dsa.Result
			m, res, err = dsa.Transform(m, cfg)
			if err != nil {
				return a.Exit(cli.Usage(err))
			}
			fmt.Fprintf(stdout, "dsa:     %s; excluded sites %v\n", res.Stats(), res.ExcludedSites())
		} else {
			m, err = dpmr.Transform(m, cfg)
			if err != nil {
				return a.Exit(cli.Usage(err))
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
		var buf bytes.Buffer
		err := stats.WriteJSON(&buf)
		if err == nil && *opStats == "-" {
			_, err = stdout.Write(buf.Bytes())
		} else if err == nil {
			err = os.WriteFile(*opStats, buf.Bytes(), 0o666)
		}
		if err != nil {
			return a.Exit(err)
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
