// Package cli is the execution arm dpmr-exp and dpmr-run share. Each
// binary builds a harness.Spec from its own declarative flags; everything
// that decides how that Spec runs is registered, validated and executed
// here, once:
//
//   - the flags -spec, -dump-spec, -parallel, -progress, -shard, -out,
//     -merge, -journal, -resume, -remote, the -coord* family and the
//     profiling flags, plus a failpoint schedule from the environment;
//   - the mode switch: a local run, one shard written as a partial, a
//     merge of partial files, a coordinator fleet, a dpmrd daemon, a
//     journaled run, or a -worker serving a coordinator;
//   - the exit codes: 2 for command-line misuse, 1 for a failed run.
//
// Where an experiment and a campaign kind differ — merging and rendering
// shard payloads, the journaled run — the arm branches on the Spec's
// kind, never on the binary. Progress follows one rule: shard lines come
// from whoever runs the shards. A local run, a shard, a merge of files
// and an in-process journal render their own events; a -coord fleet
// renders one line per returned payload and a -remote daemon streams its
// own, while the client-side merge of fleet payloads stays quiet.
package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dpmr/internal/coord"
	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
	"dpmr/internal/prof"
)

// Arm holds the parsed execution flags of one CLI invocation. Construct
// it with New before parsing, call Check once the FlagSet has parsed,
// then Run the Spec the binary built.
type Arm struct {
	SpecFile string
	DumpSpec bool
	Parallel int
	Progress bool
	Shard    string
	Out      string
	Merge    bool
	Journal  string
	Resume   bool
	Remote   string
	Coord    coord.CLIFlags

	fs             *flag.FlagSet
	prof           prof.Flags
	shard          harness.ShardSpec
	files          []string
	stdin          io.Reader
	stdout, stderr io.Writer
}

// New registers the execution flags on fs. Reports go to stdout;
// diagnostics and progress to stderr; a -worker reads its assignments
// from stdin.
func New(fs *flag.FlagSet, stdin io.Reader, stdout, stderr io.Writer) *Arm {
	a := &Arm{fs: fs, stdin: stdin, stdout: stdout, stderr: stderr}
	fs.StringVar(&a.SpecFile, "spec", "", "run the Spec described by this JSON file instead of the declarative flags")
	fs.BoolVar(&a.DumpSpec, "dump-spec", false, "print the canonical JSON Spec and exit (the -spec file format)")
	fs.IntVar(&a.Parallel, "parallel", 1, "trial worker goroutines (output is identical at any count)")
	fs.BoolVar(&a.Progress, "progress", false, "report trial progress, merged shards and module-cache residency on stderr")
	fs.StringVar(&a.Shard, "shard", "", "run shard i/N of the plan and write its partial result")
	fs.StringVar(&a.Out, "out", "", "partial-result output file with -shard (default stdout)")
	fs.BoolVar(&a.Merge, "merge", false, "merge partial-result files, directories, or globs (the positional arguments) and render the report")
	fs.StringVar(&a.Journal, "journal", "", "journal completed trial spans to this `dir` and write a progressive report there")
	fs.BoolVar(&a.Resume, "resume", false, "resume from an existing -journal directory, re-running only the missing trials")
	fs.StringVar(&a.Remote, "remote", "", "submit the Spec to the dpmrd campaign service at this `addr` (TCP host:port or Unix socket path) and merge its streamed shards locally")
	a.Coord.Register(fs)
	a.prof.Register(fs)
	return a
}

// Mode names the execution mode the flags select — the first of -merge,
// -shard, -coord, -worker and -remote that is set, else -journal — or
// "" for a plain local run.
func (a *Arm) Mode() string {
	if m := a.modes(); len(m) > 0 {
		return m[0]
	}
	if a.Journal != "" {
		return "-journal"
	}
	return ""
}

// modes lists the mutually exclusive mode flags that are set.
func (a *Arm) modes() []string {
	var on []string
	set := []bool{a.Merge, a.Shard != "", a.Coord.Enabled(), a.Coord.Worker, a.Remote != ""}
	for i, name := range []string{"-merge", "-shard", "-coord", "-worker", "-remote"} {
		if set[i] {
			on = append(on, name)
		}
	}
	return on
}

// journalClash says why -journal cannot ride along with a mode.
var journalClash = map[string]string{
	"-merge":  "the journal replaces manual shard files",
	"-shard":  "the journal replaces manual shard files",
	"-remote": "a remote run journals on the daemon",
	"-worker": "-journal and -worker are mutually exclusive: assignments carry the spec",
}

// Check arms the failpoint schedule in the environment and validates the
// execution flags: at most one mode, -journal only alone or with -coord,
// and well-formed -shard, -merge and -coord* values. It runs before any
// journal, profile or partial file is touched.
func (a *Arm) Check() error {
	if sched, err := failpt.ArmFromEnv(); err != nil {
		return Usage(fmt.Errorf("%s: %w", failpt.EnvVar, err))
	} else if sched != "" {
		fmt.Fprintf(a.stderr, "%s: failpoints armed from %s: %s\n", a.fs.Name(), failpt.EnvVar, sched)
	}
	modes := a.modes()
	switch {
	case len(modes) > 1:
		return Usage(fmt.Errorf("%s and %s are mutually exclusive", modes[0], modes[1]))
	case a.Coord.Worker && a.SpecFile != "":
		return Usage(errors.New("-spec and -worker are mutually exclusive (assignments carry the spec)"))
	case a.Journal != "" && len(modes) == 1 && modes[0] != "-coord":
		return Usage(fmt.Errorf("-journal is incompatible with %s (%s)", modes[0], journalClash[modes[0]]))
	case a.Resume && a.Journal == "":
		return Usage(errors.New("-resume requires -journal (the directory holding the journal to continue)"))
	case a.Out != "" && a.Shard == "":
		return Usage(errors.New("-out requires -shard (merged and unsharded reports go to stdout)"))
	}
	err := a.Coord.Validate(a.fs)
	if err == nil && a.Shard != "" {
		a.shard, err = harness.ParseShard(a.Shard)
	}
	if err == nil && a.Merge {
		a.files, err = expandPartialArgs(a.fs.Args())
	}
	if err != nil {
		return Usage(err)
	}
	return nil
}

// Run executes spec in the selected mode; a -worker ignores spec and
// serves the Specs its assignments carry. Experiment Specs write their
// report as it renders; campaign and concurrent Specs print a summary.
func (a *Arm) Run(ctx context.Context, spec harness.Spec) error {
	if a.DumpSpec {
		return spec.Encode(a.stdout)
	}
	if a.Journal != "" && a.Coord.Enabled() && spec.Kind == harness.SpecExperiment {
		// dpmrd applies the same rule: only plans journal through the fleet.
		return Usage(errors.New("-journal is incompatible with -coord for experiment specs (an experiment journals in process only)"))
	}
	if a.Parallel < 1 {
		// Options reads 0 as its serial default; the flag has no default
		// to fall back on, so a non-positive count is refused.
		return fmt.Errorf("-parallel %d: campaigns need at least 1 worker", a.Parallel)
	}
	label := spec.Exp
	if a.Merge {
		label = "merge"
	} else if label == "" {
		label = "campaign"
	}
	opts := harness.Options{Parallel: a.Parallel}
	if a.Progress {
		opts.Events = harness.RenderProgress(a.stderr, label)
	}
	stop, err := a.Profile()
	if err != nil {
		return err
	}
	defer stop()
	quiet := harness.Options{Parallel: a.Parallel}
	switch {
	case a.Coord.Worker:
		// One Runner for the worker's lifetime: shards leased to it reuse
		// its base modules and goldens.
		local := coord.NewLocal(quiet)
		return coord.Serve(a.stdin, a.stdout, func(spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
			return local.Payload(ctx, spec, shard)
		})
	case a.Merge:
		payloads := make([][]byte, len(a.files))
		for i, name := range a.files {
			if payloads[i], err = os.ReadFile(name); err != nil {
				return err
			}
		}
		return a.render(ctx, spec, payloads, opts, fmt.Sprintf("%d shards", len(payloads)))
	case a.Shard != "":
		return a.writeShard(ctx, spec, opts)
	case a.Remote != "":
		var sink func(harness.Event)
		if a.Progress {
			sink = harness.RenderProgress(a.stderr, label+"@"+a.Remote)
		}
		payloads, err := coordnet.Submit(ctx, a.Remote, spec, sink)
		if err != nil {
			return err
		}
		return a.render(ctx, spec, payloads, quiet, fmt.Sprintf("%d shards via dpmrd", len(payloads)))
	case a.Journal != "":
		return a.journaled(ctx, spec, opts)
	case a.Coord.Enabled():
		payloads, err := coord.Run(ctx, a.Coord.Fleet(spec, opts, a.Progress, a.stderr))
		if err != nil {
			return err
		}
		return a.render(ctx, spec, payloads, quiet, fmt.Sprintf("%d shards via %d workers", len(payloads), a.Coord.Workers))
	case spec.Exp == "all":
		return harness.GenerateAll(ctx, spec, a.stdout, opts)
	}
	s, err := harness.Start(ctx, spec, a.stdout, opts)
	if err != nil {
		return err
	}
	res, err := s.Drain(nil)
	if err != nil || spec.Kind == harness.SpecExperiment {
		return err
	}
	res.Render(a.stdout, fmt.Sprintf("%d workers", a.Parallel))
	fmt.Fprintf(a.stdout, "modules:    %d built, peak %d resident, %d evicted\n",
		res.Stats.Builds, res.Stats.Peak, res.Stats.Evicted)
	return nil
}

// Profile starts the profiles -cpuprofile and -memprofile request. When
// err is nil the returned stop flushes them; a flush failure cannot
// change the exit code, so it is reported on stderr.
func (a *Arm) Profile() (stop func(), err error) {
	flush, err := a.prof.Start()
	return func() {
		if err := flush(); err != nil {
			fmt.Fprintf(a.stderr, "%s: %v\n", a.fs.Name(), err)
		}
	}, err
}

// writeShard runs the -shard slice of spec's plan and writes its
// partial to -out, or to stdout without one.
func (a *Arm) writeShard(ctx context.Context, spec harness.Spec, opts harness.Options) error {
	payload, err := harness.ShardPayload(ctx, spec, a.shard, opts)
	if err != nil {
		return err
	}
	if a.Out == "" || a.Out == "-" {
		_, err = a.stdout.Write(payload)
	} else {
		err = os.WriteFile(a.Out, payload, 0o666)
	}
	if err != nil {
		return err
	}
	ev := harness.MergedEvent(a.shard, payload)
	fmt.Fprintf(a.stderr, "shard %s: trials [%d, %d) of %d\n", a.shard, ev.Lo, ev.Hi, ev.Total)
	return nil
}

// render merges shard payloads of spec's plan — validated against its
// fingerprint and required to tile it exactly — and writes the report:
// an experiment's tables, or a summary whose header names how it ran.
func (a *Arm) render(ctx context.Context, spec harness.Spec, payloads [][]byte, opts harness.Options, how string) error {
	if spec.Kind == harness.SpecExperiment {
		readers := make([]io.Reader, len(payloads))
		for i, p := range payloads {
			readers[i] = bytes.NewReader(p)
		}
		return harness.GenerateMerged(ctx, spec, a.stdout, readers, opts)
	}
	res, err := opts.Apply().MergePayloads(spec, payloads)
	if err != nil {
		return err
	}
	res.Render(a.stdout, how)
	return nil
}

// journaled runs spec against the -journal directory: replayed coverage
// is skipped, every completed span is durable before it counts, and
// report.txt re-renders after replay and as spans land, ending
// byte-identical to stdout. A campaign or concurrent Spec under -coord
// leases the journal's gaps to the fleet.
func (a *Arm) journaled(ctx context.Context, spec harness.Spec, opts harness.Options) error {
	// Opening is usage-class: a mismatched Spec, nothing to resume, or a
	// clobbered or corrupt directory all name what to fix.
	j, prior, err := harness.OpenJournal(a.Journal, a.Resume, spec)
	if err != nil {
		return Usage(err)
	}
	defer j.Close()
	// report re-renders report.txt, noting the missing trials until
	// there are none.
	report := func(render func(io.Writer) error, done, total int) error {
		return journal.WriteReport(a.Journal, func(w io.Writer) error {
			if err := render(w); err != nil {
				return err
			}
			if done < total {
				fmt.Fprintf(w, "# journal: %d of %d trials\n", done, total)
			}
			return nil
		})
	}
	summary := func(res harness.Result) func(io.Writer) error {
		return func(w io.Writer) error { res.Render(w, "journaled"); return nil }
	}
	var res harness.Result
	var replayed, executed, total int
	var snapErr error
	keep := func(err error) {
		if snapErr == nil {
			snapErr = err
		}
	}
	how := ""
	switch {
	case spec.Kind == harness.SpecExperiment:
		executed, err = harness.GenerateJournaled(ctx, spec, j, prior, harness.DefaultResumeSpans, a.stdout, opts,
			func(render func(io.Writer) error, done, planTotal int) {
				total = planTotal
				keep(report(render, done, planTotal))
			})
		replayed = total - executed
	case a.Coord.Enabled():
		var c *harness.Resume
		if c, err = opts.Apply().Resume(spec, j, prior); err != nil {
			return err
		}
		replayed, total = c.Done(), c.Total
		if err := report(summary(c.Snapshot()), replayed, total); err != nil {
			return err
		}
		cfg := a.Coord.Fleet(spec, opts, a.Progress, a.stderr)
		cfg.Resume = c
		// -coord-shards overrides the default span count; the cut stays a
		// pure function of (journal, Spec, span count), never of the
		// worker count.
		if a.Coord.Shards == 0 {
			cfg.Shards = harness.DefaultResumeSpans
		}
		progress := cfg.OnResult
		cfg.OnResult = func(shard harness.ShardSpec, payload []byte) error {
			if progress != nil {
				_ = progress(shard, payload) // rendering a line cannot fail
			}
			if c.Done() == replayed {
				return nil // a replayed span: the report above shows it
			}
			return report(summary(c.Snapshot()), c.Done(), total)
		}
		if _, err = coord.Run(ctx, cfg); err == nil {
			res, err = c.Merge()
		}
		executed = total - replayed
		how = fmt.Sprintf(" via %d workers", a.Coord.Workers)
	default:
		res, executed, err = opts.Apply().RunJournaled(ctx, spec, j, prior, harness.DefaultResumeSpans,
			func(snap harness.Result, done, planTotal int) {
				total = planTotal
				keep(report(summary(snap), done, planTotal))
			})
		replayed = total - executed
	}
	if err != nil {
		return err
	}
	if snapErr != nil {
		return snapErr
	}
	fmt.Fprintf(a.stderr, "journal: replayed %d trials, executed %d trials%s\n", replayed, executed, how)
	if derr := j.Degraded(); derr != nil {
		fmt.Fprintf(a.stderr, "%s: WARNING: the run completed, but the journal degraded and cannot be resumed: %v\n", a.fs.Name(), derr)
	}
	res.Render(a.stdout, "journaled")
	return nil
}

// expandPartialArgs turns -merge's positional arguments into the partial
// files to merge: a directory expands to its *.json files, an argument
// containing glob metacharacters expands via filepath.Glob, and anything
// else is taken literally. An argument matching nothing is an error — a
// silently empty expansion would merge an incomplete shard set, which
// the merge layer would then reject far more cryptically.
func expandPartialArgs(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, errors.New("-merge needs partial-result files, directories, or globs as arguments")
	}
	var files []string
	for _, arg := range args {
		// An existing file always means itself, even when its name
		// contains glob metacharacters.
		pattern := ""
		if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
			pattern = filepath.Join(arg, "*.json")
		} else if err != nil && strings.ContainsAny(arg, "*?[") {
			pattern = arg
		}
		if pattern == "" {
			files = append(files, arg)
			continue
		}
		matches, err := filepath.Glob(pattern)
		switch {
		case err != nil:
			return nil, fmt.Errorf("-merge: bad pattern %q: %w", arg, err)
		case len(matches) == 0 && pattern != arg:
			return nil, fmt.Errorf("-merge: no *.json partials in directory %s", arg)
		case len(matches) == 0:
			return nil, fmt.Errorf("-merge: no partials match %q", arg)
		}
		files = append(files, matches...)
	}
	return files, nil
}

// usageError marks command-line misuse.
type usageError struct{ error }

func (u usageError) Unwrap() error { return u.error }

// Usage marks err as command-line misuse (a bad flag, flag combination
// or Spec file): Exit returns 2 for it.
func Usage(err error) error { return usageError{err} }

// Exit reports err on stderr and returns the process exit code: 0 for
// nil, 2 for a Usage error, 1 for a failed run — in every mode.
func (a *Arm) Exit(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(a.stderr, "%s: %v\n", a.fs.Name(), err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
