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
// so a 16-shard run merges without enumerating files by hand.
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
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"dpmr/internal/coord"
	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
	"dpmr/internal/prof"
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
		exp        = fs.String("exp", "", "experiment id (fig3.6..fig4.14, tab3.3/3.4/4.5/4.6) or 'all'")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		quick      = fs.Bool("quick", false, "quick mode: fewer workloads, sites, runs")
		runs       = fs.Int("runs", 0, "runs per experiment tuple (default 2; 1 in quick mode)")
		maxSites   = fs.Int("max-sites", 0, "cap injection sites per workload (0 = all)")
		specFile   = fs.String("spec", "", "run the experiment described by this JSON spec file instead of the declarative flags")
		dumpSpec   = fs.Bool("dump-spec", false, "print the canonical JSON spec of the requested experiment and exit (the -spec file format)")
		parallel   = fs.Int("parallel", 1, "campaign worker goroutines (output is identical at any count)")
		progress   = fs.Bool("progress", false, "report per-trial campaign progress and module-cache residency on stderr")
		shard      = fs.String("shard", "", "run shard i/N of the experiment and write a partial result (requires a single experiment)")
		outPath    = fs.String("out", "", "partial-result output file with -shard (default stdout)")
		merge      = fs.Bool("merge", false, "merge partial-result files, directories, or globs (the positional arguments) and render the report")
		journalDir = fs.String("journal", "", "journal completed trial spans to this `dir` and write a progressive report there (requires a single experiment)")
		resumeJnl  = fs.Bool("resume", false, "resume the experiment from an existing -journal directory, re-running only the missing trials")
		remote     = fs.String("remote", "", "submit the experiment to the dpmrd campaign service at this `addr` (TCP host:port or Unix socket path) and merge its streamed shards")
	)
	var cf coord.CLIFlags
	cf.Register(fs, "experiment", "worker mode: serve shard assignments from stdin (JSON lines carrying the spec; normally spawned by a coordinator)")
	var pf prof.Flags
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if sched, err := failpt.ArmFromEnv(); err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", failpt.EnvVar, err))
	} else if sched != "" {
		fmt.Fprintf(stderr, "dpmr-exp: failpoints armed from %s: %s\n", failpt.EnvVar, sched)
	}
	if *outPath != "" && *shard == "" {
		return fail(stderr, fmt.Errorf("-out requires -shard (merged and unsharded reports go to stdout)"))
	}

	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	if cf.Worker && *specFile != "" {
		return fail(stderr, fmt.Errorf("-spec and -worker are mutually exclusive (assignments carry the spec)"))
	}
	// The declarative flags assemble the Spec; -spec replaces them with a
	// file (mixing the two is refused inside ParseSpecFlags).
	base := harness.Spec{Kind: harness.SpecExperiment, Exp: *exp, Quick: *quick, Runs: *runs, MaxSites: *maxSites}
	spec, err := harness.ParseSpecFlags(fs, *specFile, base, "exp", "quick", "runs", "max-sites")
	if err != nil {
		return fail(stderr, err)
	}
	if spec.Kind != harness.SpecExperiment {
		return fail(stderr, fmt.Errorf("-spec %s: dpmr-exp runs experiment specs, got kind %q (use dpmr-run for campaigns)", *specFile, spec.Kind))
	}
	if *dumpSpec {
		if err := spec.Encode(stdout); err != nil {
			return runFail(stderr, err)
		}
		return 0
	}
	if *parallel < 1 {
		// Options reads 0 as its serial default; the flag has no default
		// to fall back on, so a non-positive count is refused.
		return runFail(stderr, fmt.Errorf("-parallel %d: campaigns need at least 1 worker", *parallel))
	}
	opts := harness.Options{Parallel: *parallel}
	if *progress {
		label := spec.Exp
		if *merge {
			label = "merge"
		}
		opts.Events = harness.RenderProgress(stderr, label)
	}

	// The five execution modes are mutually exclusive; name the clash
	// instead of silently preferring one.
	modes := 0
	for _, on := range []bool{*merge, *shard != "", cf.Enabled(), cf.Worker, *remote != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fail(stderr, fmt.Errorf("-merge, -shard, -coord, -worker, and -remote are mutually exclusive"))
	}
	if err := cf.Validate(fs); err != nil {
		return fail(stderr, err)
	}
	// Validate the mode-specific usage constraints before profiling
	// starts, so a usage error cannot truncate an existing profile file:
	// -cpuprofile is only created once the invocation is known-valid.
	var shardSpec harness.ShardSpec
	if *shard != "" {
		s, err := harness.ParseShard(*shard)
		if err != nil {
			return fail(stderr, err)
		}
		if spec.Exp == "" || spec.Exp == "all" {
			return fail(stderr, fmt.Errorf("-shard requires a single experiment via -exp or -spec"))
		}
		shardSpec = s
	}
	if cf.Enabled() && (spec.Exp == "" || spec.Exp == "all") {
		return fail(stderr, fmt.Errorf("-coord requires a single experiment via -exp or -spec"))
	}
	if *remote != "" && (spec.Exp == "" || spec.Exp == "all") {
		return fail(stderr, fmt.Errorf("-remote requires a single experiment via -exp or -spec"))
	}
	if *resumeJnl && *journalDir == "" {
		return fail(stderr, fmt.Errorf("-resume requires -journal (the directory holding the journal to continue)"))
	}
	if *journalDir != "" {
		if *merge || *shard != "" || cf.Enabled() || cf.Worker || *remote != "" {
			return fail(stderr, fmt.Errorf("-journal is incompatible with -merge, -shard, -coord, -worker, and -remote (a remote campaign journals on the daemon)"))
		}
		if spec.Exp == "" || spec.Exp == "all" {
			return fail(stderr, fmt.Errorf("-journal requires a single experiment via -exp or -spec"))
		}
	}
	if spec.Exp == "" && !*merge && !cf.Worker {
		fs.Usage()
		return 2
	}
	var mergeFiles []string
	if *merge {
		files, err := expandPartialArgs(fs.Args())
		if err != nil {
			return fail(stderr, err)
		}
		mergeFiles = files
	}
	profStop, perr := pf.Start()
	if perr != nil {
		// Profile-file I/O failure is a run failure (exit 1), not
		// command-line misuse.
		return runFail(stderr, perr)
	}
	defer func() {
		// Profile flushing failures can't change the exit code from a
		// defer; surface them loudly instead of dropping them.
		if err := profStop(); err != nil {
			fmt.Fprintln(stderr, "dpmr-exp:", err)
		}
	}()

	switch {
	case *merge:
		readers := make([]io.Reader, len(mergeFiles))
		for i, name := range mergeFiles {
			f, err := os.Open(name)
			if err != nil {
				return runFail(stderr, err)
			}
			defer f.Close()
			readers[i] = f
		}
		if err := harness.GenerateMerged(ctx, spec, stdout, readers, opts); err != nil {
			return runFail(stderr, err)
		}
		return 0
	case *shard != "":
		out := io.Writer(stdout)
		var f *os.File
		if *outPath != "" && *outPath != "-" {
			var err error
			f, err = os.Create(*outPath)
			if err != nil {
				return runFail(stderr, err)
			}
			out = f
		}
		shardOpts := opts
		shardOpts.Shard = shardSpec
		if err := runSession(ctx, spec, out, shardOpts); err != nil {
			if f != nil {
				f.Close()
			}
			return runFail(stderr, err)
		}
		// A close error (deferred flush, ENOSPC) would leave a truncated
		// partial behind a zero exit; surface it.
		if f != nil {
			if err := f.Close(); err != nil {
				return runFail(stderr, err)
			}
		}
		return 0
	case cf.Worker:
		// One Runner for the worker's lifetime: shards leased to this
		// worker reuse its base modules and goldens, while injected
		// modules leave after their last trial. The spec arrives with
		// each assignment — argv carries none of it.
		opts.Events = nil
		local := coord.NewLocal(opts)
		err := coord.Serve(stdin, stdout, func(spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
			return local.Payload(ctx, spec, shard)
		})
		if err != nil {
			return runFail(stderr, err)
		}
		return 0
	case *remote != "":
		return runRemote(ctx, spec, *remote, opts, *progress, stdout, stderr)
	case cf.Enabled():
		return runCoordinated(ctx, spec, cf, opts, *progress, stdout, stderr)
	case *journalDir != "":
		// Journal open/validation errors are usage-class (exit 2): a
		// mismatched spec, a missing journal under -resume, a clobbered or
		// corrupt directory — all name what to fix.
		j, prior, err := harness.OpenJournal(*journalDir, *resumeJnl, spec)
		if err != nil {
			return fail(stderr, err)
		}
		defer j.Close()
		var snapErr error
		executed, err := harness.GenerateJournaled(ctx, spec, j, prior, harness.DefaultResumeSpans, stdout, opts,
			func(render func(io.Writer) error, done, total int) {
				if werr := journal.WriteReport(*journalDir, func(w io.Writer) error {
					if err := render(w); err != nil {
						return err
					}
					if done < total {
						fmt.Fprintf(w, "# journal: %d of %d trials\n", done, total)
					}
					return nil
				}); werr != nil && snapErr == nil {
					snapErr = werr
				}
			})
		if err != nil {
			return runFail(stderr, err)
		}
		if snapErr != nil {
			return runFail(stderr, snapErr)
		}
		fmt.Fprintf(stderr, "journal: executed %d trials\n", executed)
		if derr := j.Degraded(); derr != nil {
			fmt.Fprintf(stderr, "dpmr-exp: WARNING: the report above is complete, but the journal degraded and cannot be resumed: %v\n", derr)
		}
		return 0
	}

	if spec.Exp == "all" {
		if err := harness.GenerateAll(ctx, spec, stdout, opts); err != nil {
			return runFail(stderr, err)
		}
		return 0
	}
	if err := runSession(ctx, spec, stdout, opts); err != nil {
		return runFail(stderr, err)
	}
	return 0
}

// runSession runs a streaming Session of the spec to completion, its
// report going to report and its progress to opts.Events — the
// context-first path unsharded and sharded single-experiment runs share.
func runSession(ctx context.Context, spec harness.Spec, report io.Writer, opts harness.Options) error {
	s, err := harness.Start(ctx, spec, report, opts)
	if err != nil {
		return err
	}
	_, err = s.Drain(nil)
	return err
}

// runCoordinated schedules the experiment's shards on a worker fleet and
// renders the merged report — byte-identical to an unsharded run — to
// stdout. The Spec rides in every assignment; spawned workers' argv
// carries only execution policy.
func runCoordinated(ctx context.Context, spec harness.Spec, cf coord.CLIFlags, opts harness.Options,
	progress bool, stdout, stderr io.Writer) int {
	payloads, err := coord.Run(ctx, cf.Fleet(spec, opts, progress, stderr))
	if err != nil {
		return runFail(stderr, err)
	}
	readers := make([]io.Reader, len(payloads))
	for i, p := range payloads {
		readers[i] = bytes.NewReader(p)
	}
	if err := harness.GenerateMerged(ctx, spec, stdout, readers, opts); err != nil {
		return runFail(stderr, err)
	}
	return 0
}

// runRemote submits the experiment Spec to a dpmrd campaign service and
// merges the shard payloads it streams back — the same fingerprint +
// exact-tiling merge as -coord, so the report is byte-identical to a
// local run and nothing is taken on the daemon's word. Progress renders
// the daemon's typed shard events exactly like local session events.
func runRemote(ctx context.Context, spec harness.Spec, addr string, opts harness.Options,
	progress bool, stdout, stderr io.Writer) int {
	var sink func(harness.Event)
	if progress {
		sink = harness.RenderProgress(stderr, spec.Exp+"@"+addr)
	}
	payloads, err := coordnet.Submit(ctx, addr, spec, sink)
	if err != nil {
		return runFail(stderr, err)
	}
	readers := make([]io.Reader, len(payloads))
	for i, p := range payloads {
		readers[i] = bytes.NewReader(p)
	}
	if err := harness.GenerateMerged(ctx, spec, stdout, readers, opts); err != nil {
		return runFail(stderr, err)
	}
	return 0
}

// expandPartialArgs turns -merge's positional arguments into the partial
// files to merge: a directory expands to its *.json files, an argument
// containing glob metacharacters expands via filepath.Glob, and anything
// else is taken literally. An argument matching nothing is an error — a
// silently empty expansion would merge an incomplete shard set, which
// the merge layer would then reject far more cryptically.
func expandPartialArgs(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("-merge needs partial-result files, directories, or globs as arguments")
	}
	var files []string
	for _, arg := range args {
		if fi, err := os.Stat(arg); err == nil {
			if !fi.IsDir() {
				// An existing file always means itself, even when its
				// name contains glob metacharacters.
				files = append(files, arg)
				continue
			}
			matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
			if err != nil {
				return nil, err
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("-merge: no *.json partials in directory %s", arg)
			}
			files = append(files, matches...)
			continue
		}
		if strings.ContainsAny(arg, "*?[") {
			matches, err := filepath.Glob(arg)
			if err != nil {
				return nil, fmt.Errorf("-merge: bad pattern %q: %w", arg, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("-merge: no partials match %q", arg)
			}
			files = append(files, matches...)
			continue
		}
		files = append(files, arg)
	}
	return files, nil
}

// fail reports command-line misuse (bad flags, flag combinations, or an
// invalid -spec file): exit 2. Failures of the run itself — unknown
// experiments, partial-file I/O, merge validation, campaign errors, a
// fleet that cannot finish — exit 1 via runFail, in every mode (sharded,
// merged, coordinated, or unsharded).
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmr-exp:", err)
	return 2
}

func runFail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmr-exp:", err)
	return 1
}
