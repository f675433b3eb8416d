// Command dpmr-exp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	dpmr-exp -exp fig3.10            # one table/figure
//	dpmr-exp -exp all                # the full evaluation
//	dpmr-exp -exp tab3.3 -quick      # reduced workloads/sites for a fast pass
//	dpmr-exp -list                   # list experiment ids
//
// What to run and how to run it are separate surfaces. The declarative
// flags (-exp, -quick, -runs, -max-sites) assemble a harness.Spec — the
// serializable experiment description whose canonical JSON is the sole
// source of every plan fingerprint. -dump-spec prints that JSON, and
// -spec runs an experiment from such a file instead of the flags:
//
//	dpmr-exp -exp fig3.7 -quick -dump-spec > fig3.7.json
//	dpmr-exp -spec fig3.7.json       # byte-identical to the flag-driven run
//
// The remaining flags (-parallel, -progress, -shard, -coord…) assemble
// a harness.Options, the execution policy: they only tune execution and
// can never change what runs, the plan, or its fingerprint. -progress
// writes to stderr, so report pipelines reading stdout stay clean.
//
// Every experiment shards across processes: each shard runs a contiguous
// slice of the canonical trial plan (injection campaigns and overhead
// measurements alike) and writes a partial result, and -merge reassembles
// a report byte-identical to an unsharded run (mismatched plans,
// duplicated shards, and missing trial ranges are rejected):
//
//	dpmr-exp -exp fig3.7 -shard 0/3 -out part0.json
//	dpmr-exp -exp fig3.7 -shard 1/3 -out part1.json
//	dpmr-exp -exp fig3.7 -shard 2/3 -out part2.json
//	dpmr-exp -merge part0.json part1.json part2.json
//
// -merge also takes directories and glob patterns ('parts/', 'part*.json'),
// so a 16-shard run merges without enumerating files by hand. Each shard
// reports its trial range on stderr.
//
// With -coord the same sharding runs under a supervising coordinator
// instead of by hand: the plan is cut into -coord-shards slices, leased
// to a fleet of workers (in-process goroutines, or spawned
// `dpmr-exp -worker` processes with -coord-spawn), stragglers and
// crashed workers are retried, and the merged report — still
// byte-identical to an unsharded run — lands on stdout in one command.
// Each coord.Assignment carries the Spec over the wire, so a worker
// process's argv holds only execution policy:
//
//	dpmr-exp -exp fig3.7 -coord 8
//	dpmr-exp -exp tab3.3 -coord 4 -coord-spawn -coord-lease 5m
//
// -remote submits the experiment to a dpmrd daemon instead, and -journal
// makes a local run crash-safe and resumable with -resume. Under
// -progress every shard of a fleet prints one line: from the fleet's
// results under -coord, from the daemon's stream under -remote. The
// execution flags and their exit codes (2 for misuse, 1 for a failed
// run) are shared with dpmr-run through internal/cli.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"dpmr/internal/cli"
	"dpmr/internal/harness"
)

func main() {
	// Interrupts cancel the context instead of killing the process: the
	// engine stops dispatching, drains in-flight trials, and exits
	// cleanly (a second interrupt kills outright).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpmr-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id (fig3.6..fig4.14, tab3.3/3.4/4.5/4.6) or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		quick    = fs.Bool("quick", false, "quick mode: fewer workloads, sites, runs")
		runs     = fs.Int("runs", 0, "runs per experiment tuple (default 2; 1 in quick mode)")
		maxSites = fs.Int("max-sites", 0, "cap injection sites per workload (0 = all)")
	)
	a := cli.New(fs, stdin, stdout, stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if err := a.Check(); err != nil {
		return a.Exit(err)
	}
	// The declarative flags assemble the Spec; -spec replaces them with a
	// file (mixing the two is refused inside ParseSpecFlags).
	base := harness.Spec{Kind: harness.SpecExperiment, Exp: *exp, Quick: *quick, Runs: *runs, MaxSites: *maxSites}
	spec, err := harness.ParseSpecFlags(fs, a.SpecFile, base, "exp", "quick", "runs", "max-sites")
	if err != nil {
		return a.Exit(cli.Usage(err))
	}
	if spec.Kind != harness.SpecExperiment {
		return a.Exit(cli.Usage(fmt.Errorf("-spec %s: dpmr-exp runs experiment specs, got kind %q (use dpmr-run for campaigns)", a.SpecFile, spec.Kind)))
	}
	if spec.Exp == "" || spec.Exp == "all" {
		switch m := a.Mode(); m {
		case "-shard", "-coord", "-remote", "-journal":
			return a.Exit(cli.Usage(fmt.Errorf("%s requires a single experiment via -exp or -spec", m)))
		case "":
			if spec.Exp == "" && !a.DumpSpec {
				fs.Usage()
				return 2
			}
		}
	}
	return a.Exit(a.Run(ctx, spec))
}
