package coord

// The -coord* flag family of the CLIs' execution arm (internal/cli).
// Registering and validating the flags here — next to Config — and
// building the fleet's Config from them puts a new fleet knob, a new
// dependency rule or a new worker flag in one place.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"dpmr/internal/harness"
)

// CLIFlags is the parsed -coord* flag family. Register it on a FlagSet,
// parse, then Validate the combination.
type CLIFlags struct {
	Workers int
	Shards  int
	Lease   time.Duration
	Spawn   bool
	Chaos   int
	Worker  bool

	leaseSet bool
}

// Register declares the flag family on fs.
func (c *CLIFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "coord", 0, "schedule the Spec's shards on a coordinator with this many workers (0 = off)")
	fs.IntVar(&c.Shards, "coord-shards", 0,
		"shards to cut the plan into with -coord (default 2×workers; must be ≥ workers)")
	fs.DurationVar(&c.Lease, "coord-lease", 5*time.Minute,
		"with -coord: reassign a shard whose result has not arrived within this lease; a shard whose every retry also expires fails the run, so set it above the slowest expected shard (must be positive)")
	fs.BoolVar(&c.Spawn, "coord-spawn", false,
		"with -coord: workers are spawned '"+fs.Name()+" -worker' processes over JSON-lines stdio instead of in-process goroutines")
	fs.IntVar(&c.Chaos, "coord-chaos", 0,
		"with -coord-spawn: fault drill — kill this many workers after their first lease and rely on retry")
	fs.BoolVar(&c.Worker, "worker", false,
		"worker mode: serve shard assignments from stdin (JSON lines carrying the spec; normally spawned by a coordinator)")
}

// Validate rejects inconsistent flag combinations after fs has parsed:
// every -coord-* flag needs -coord, the fleet needs at least one worker,
// and the plan must be cut at least as fine as the fleet. Call it with
// the parsed FlagSet so explicitly-set flags are distinguished from
// defaults.
func (c *CLIFlags) Validate(fs *flag.FlagSet) error {
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "coord-lease" {
			c.leaseSet = true
		}
	})
	if c.Workers < 0 {
		return fmt.Errorf("-coord %d: the fleet needs at least 1 worker", c.Workers)
	}
	if c.Workers == 0 {
		switch {
		case c.Shards != 0:
			return fmt.Errorf("-coord-shards requires -coord")
		case c.Spawn:
			return fmt.Errorf("-coord-spawn requires -coord")
		case c.leaseSet:
			return fmt.Errorf("-coord-lease requires -coord")
		}
	}
	if c.Shards != 0 && c.Shards < c.Workers {
		return fmt.Errorf("-coord-shards %d for %d workers: cut the plan at least as fine as the fleet", c.Shards, c.Workers)
	}
	if c.Lease <= 0 {
		return fmt.Errorf("-coord-lease %v: the lease must be positive (it bounds how long a straggling shard may withhold its result)", c.Lease)
	}
	if c.Chaos != 0 && !c.Spawn {
		return fmt.Errorf("-coord-chaos requires -coord-spawn (only spawned workers can be killed)")
	}
	return nil
}

// Enabled reports whether a coordinator run was requested.
func (c *CLIFlags) Enabled() bool { return c.Workers != 0 }

// Fleet is the Config a -coord run of spec uses: the flags' fleet size,
// cut (2×workers unless -coord-shards is set), lease and chaos drill.
// Each fleet slot is a Local running under opts, or with -coord-spawn a
// spawned worker process given workerArgv of opts. Workers run quiet,
// since per-trial events from several of them would interleave: instead
// opts.Events, when set, receives one ShardMerged per returned payload,
// as a dpmrd client does. With progress the scheduler's diagnostics go
// to stderr, as do spawned workers' own.
func (c *CLIFlags) Fleet(spec harness.Spec, opts harness.Options, progress bool, stderr io.Writer) Config {
	events := opts.Events
	opts.Events = nil
	cfg := Config{
		Spec: spec, Workers: c.Workers, Shards: c.Shards, Lease: c.Lease, Chaos: c.Chaos,
		Spawn: func(int) (Worker, error) { return NewLocal(opts), nil },
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2 * c.Workers
	}
	if c.Spawn {
		argv := workerArgv(opts)
		cfg.Spawn = func(int) (Worker, error) {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("coord: resolving worker executable: %w", err)
			}
			return NewProc(stderr, exe, argv...)
		}
	}
	if events != nil {
		cfg.OnResult = func(shard harness.ShardSpec, payload []byte) error {
			events(harness.MergedEvent(shard, payload))
			return nil
		}
	}
	if progress {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "coord: "+format+"\n", args...)
		}
	}
	return cfg
}

// workerArgv is the flag line of a spawned -worker process: the
// execution policy of opts and nothing else. The Spec travels in each
// Assignment, so nothing here can change the plan or its fingerprint.
// The worker count is the one policy value the CLIs expose as a flag.
func workerArgv(opts harness.Options) []string {
	return []string{"-worker", "-parallel", strconv.Itoa(max(opts.Parallel, 1))}
}
