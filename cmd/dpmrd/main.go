// Command dpmrd is the campaign service: an always-on daemon that holds
// a persistent worker fleet and runs experiment Specs submitted by
// dpmr-exp/dpmr-run over the network (their -remote flag).
//
// One binary, two modes:
//
//	dpmrd -listen 127.0.0.1:9021 -workers 4        # the daemon
//	dpmrd -connect 127.0.0.1:9021                  # a fleet worker
//
// -listen accepts TCP host:port or a Unix socket path (anything
// containing a path separator). The daemon's fleet is its -workers
// in-process slots plus every `dpmrd -connect` process that joins; all
// of them keep each workload's base module and goldens warm across
// assignments, and shards are checked out one at a time, so concurrent
// client campaigns interleave fairly at shard granularity. A worker
// releases each injected module after the last trial of its shard that
// needs it, so its memory does not grow with the daemon's history.
// Submitted Specs past the harness bounds (MaxRuns, MaxThreads,
// MaxMemBytes, MaxPlannedTrials) are refused by name.
//
// With -journal, campaign, overhead and concurrent submissions are
// journaled per Spec fingerprint: a client that disconnects mid-run and
// resubmits the identical Spec resumes from the completed spans instead
// of starting over. Experiment submissions run several plans per shard
// and are not journaled. A severed worker socket is just an expired
// lease — the coordinator re-leases the shard, the worker redials and
// rejoins, and the client-side fingerprint + exact-tiling merge keeps
// the final report byte-identical regardless of how many times that
// happened.
// -chaos severs worker sockets mid-shard on purpose, as a standing
// drill of exactly that path.
//
// SIGINT/SIGTERM drain gracefully: the listener closes at once,
// in-flight submissions finish, then the fleet's sockets close so
// -connect workers exit cleanly. A second signal kills outright.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpmrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "", "serve the campaign service on this TCP host:port or Unix socket path")
		connect    = fs.String("connect", "", "join the fleet of the daemon at this address as a worker instead of serving")
		workers    = fs.Int("workers", 0, "in-process worker slots the daemon contributes to its own fleet (-listen mode)")
		journal    = fs.String("journal", "", "journal campaign, overhead and concurrent submissions under this `dir` (per Spec fingerprint) so a disconnected client's resubmission resumes")
		lease      = fs.Duration("lease", 5*time.Minute, "per-shard lease; an assignment outliving it is speculatively re-leased, and a dead fleet fails submissions instead of hanging them")
		keepalive  = fs.Duration("keepalive", 30*time.Second, "ping idle worker sockets at this interval and drop the unresponsive (0 disables)")
		katimeout  = fs.Duration("keepalive-timeout", 0, "how long an idle worker may take to answer a keepalive ping before it is dropped (0 = the -keepalive interval)")
		failpoints = fs.String("failpoints", "", "arm this failpoint `schedule` (site=action@N;...) for deterministic fault drills; see docs/robustness.md")
		chaos      = fs.Int("chaos", 0, "fault drill: sever this many worker sockets mid-shard (-listen mode)")
		verbose    = fs.Bool("v", false, "log scheduling and fleet diagnostics to stderr")
		parallel   = fs.Int("parallel", 1, "campaign worker goroutines per fleet slot (output is identical at any count)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail(stderr, fmt.Errorf("unexpected arguments %q (dpmrd takes no positionals)", fs.Args()))
	}
	switch {
	case *listen == "" && *connect == "":
		return fail(stderr, fmt.Errorf("one of -listen (serve) or -connect (join a fleet) is required"))
	case *listen != "" && *connect != "":
		return fail(stderr, fmt.Errorf("-listen and -connect are mutually exclusive (serve or join, not both)"))
	}
	if *connect != "" {
		for name, bad := range map[string]bool{
			"-workers": *workers != 0, "-journal": *journal != "", "-chaos": *chaos != 0,
		} {
			if bad {
				return fail(stderr, fmt.Errorf("%s applies to the daemon (-listen), not a fleet worker (-connect)", name))
			}
		}
	}
	if *workers < 0 {
		return fail(stderr, fmt.Errorf("-workers %d: a fleet cannot have negative slots", *workers))
	}
	if *lease <= 0 {
		return fail(stderr, fmt.Errorf("-lease %v: the per-shard lease must be positive (it is what keeps a dead fleet from hanging submissions)", *lease))
	}
	if *keepalive < 0 {
		return fail(stderr, fmt.Errorf("-keepalive %v: negative interval", *keepalive))
	}
	if *katimeout < 0 {
		return fail(stderr, fmt.Errorf("-keepalive-timeout %v: negative timeout", *katimeout))
	}
	if *katimeout > 0 && *keepalive == 0 {
		return fail(stderr, fmt.Errorf("-keepalive-timeout %v without a keepalive: -keepalive 0 disables the sweep the timeout would bound", *katimeout))
	}
	if *chaos < 0 {
		return fail(stderr, fmt.Errorf("-chaos %d: negative sever count", *chaos))
	}
	if *parallel < 1 {
		// Options reads 0 as its serial default; the flag has no default
		// to fall back on, so a non-positive count is refused.
		return fail(stderr, fmt.Errorf("-parallel %d: campaigns need at least 1 worker", *parallel))
	}
	if *failpoints != "" {
		if err := failpt.Arm(*failpoints); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "dpmrd: failpoints armed: %s\n", *failpoints)
	} else if sched, err := failpt.ArmFromEnv(); err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", failpt.EnvVar, err))
	} else if sched != "" {
		fmt.Fprintf(stderr, "dpmrd: failpoints armed from %s: %s\n", failpt.EnvVar, sched)
	}
	opts := harness.Options{Parallel: *parallel}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	}

	if *connect != "" {
		err := coordnet.WorkerLoop(ctx, *connect, opts, func(rejoin bool) {
			if rejoin {
				fmt.Fprintf(stderr, "dpmrd: rejoined fleet at %s\n", *connect)
			} else {
				fmt.Fprintf(stderr, "dpmrd: joined fleet at %s\n", *connect)
			}
		})
		if err != nil {
			return runFail(stderr, err)
		}
		return 0
	}

	ln, err := coordnet.Listen(*listen)
	if err != nil {
		return runFail(stderr, err)
	}
	fmt.Fprintf(stderr, "dpmrd: listening on %s\n", ln.Addr())
	srv := coordnet.NewServer(coordnet.ServerConfig{
		LocalWorkers:     *workers,
		WorkerOptions:    opts,
		JournalRoot:      *journal,
		Lease:            *lease,
		Keepalive:        *keepalive,
		KeepaliveTimeout: *katimeout,
		Chaos:            *chaos,
		Log:              logf,
	})
	if err := srv.Serve(ctx, ln); err != nil {
		return runFail(stderr, err)
	}
	fmt.Fprintln(stderr, "dpmrd: drained")
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmrd:", err)
	return 2
}

func runFail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dpmrd:", err)
	return 1
}
