package coord

// The coordinator↔worker streaming protocol: JSON lines over a byte
// stream (the worker process's stdio, or any Reader/Writer pair). The
// coordinator writes one Assignment per leased shard; the worker answers
// each with one Completion carrying the shard's serialized partial
// result. PartialResult, OverheadPartial, and ExperimentPartial are all
// JSON documents already, so they embed in Completion.Payload verbatim —
// partial results stream over the wire instead of through files.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"dpmr/internal/harness"
)

// Assignment is one coordinator→worker message: run this shard of this
// Spec's canonical plan. The Spec travels with every assignment, so a
// worker process needs no experiment description in its argv — its
// flags carry only execution policy (parallelism, compilation,
// prefetch) and the coordinator remains the single source of *what*
// runs. Both sides hold the identical normalized Spec, so both compute
// the identical plan fingerprint; a worker fed a different Spec would
// produce partials the merge layer rejects.
type Assignment struct {
	Spec  harness.Spec      `json:"spec"`
	Shard harness.ShardSpec `json:"shard"`
}

// Completion is the worker→coordinator reply: the shard it ran, and
// either the shard's serialized partial result (a JSON document) or the
// error that stopped it.
type Completion struct {
	Shard   harness.ShardSpec `json:"shard"`
	Payload json.RawMessage   `json:"payload,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// Serve is the worker side of the streaming protocol: it decodes
// Assignments from r until EOF, executes each with run, and encodes one
// Completion per assignment to w. run receives the assignment's Spec
// and shard; its payload must be a JSON document (every harness partial
// Encode emits one). A run error is reported in-band and the worker
// stays alive for the next assignment; transport errors end the loop.
func Serve(r io.Reader, w io.Writer, run func(spec harness.Spec, shard harness.ShardSpec) ([]byte, error)) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var a Assignment
		if err := dec.Decode(&a); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("coord: worker: decoding assignment: %w", err)
		}
		c := Completion{Shard: a.Shard}
		if payload, err := run(a.Spec, a.Shard); err != nil {
			c.Error = err.Error()
		} else {
			c.Payload = json.RawMessage(payload)
		}
		if err := enc.Encode(c); err != nil {
			return fmt.Errorf("coord: worker: encoding completion: %w", err)
		}
	}
}

// Local is the in-process worker: a persistent harness.Runner that
// executes every assignment under one execution policy, so each
// workload's base module and goldens stay warm across assignments
// exactly as in a spawned worker process. A Local runs one assignment
// at a time; each fleet slot needs its own.
type Local struct {
	opts harness.Options
}

// NewLocal returns a Local that runs under opts on a Runner of its own
// (opts.Runner is ignored).
func NewLocal(opts harness.Options) *Local {
	opts.Runner = harness.NewRunner()
	return &Local{opts: opts}
}

// Payload executes one shard of the Spec's plan and returns its
// serialized partial result.
func (l *Local) Payload(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	return harness.ShardPayload(ctx, spec, shard, l.opts)
}

// Run implements Worker. A failure is in-band (a ShardError): the
// worker is healthy, the shard or its Spec is the problem, so the slot
// keeps its warm Runner.
func (l *Local) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	payload, err := l.Payload(ctx, spec, shard)
	if err != nil {
		return nil, &ShardError{Shard: shard, Msg: err.Error()}
	}
	return payload, nil
}

// Close implements Worker; a Local holds no process.
func (*Local) Close() error { return nil }

// ShardError reports a shard attempt that failed while its worker stayed
// healthy — an in-band Completion.Error from a live process, as opposed
// to a transport failure (dead process, closed pipe). The coordinator
// retries the shard without killing or respawning the worker, so a warm
// process survives a deterministic shard failure.
type ShardError struct {
	Shard harness.ShardSpec
	Msg   string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coord: shard %s: %s", e.Shard, e.Msg)
}

// Proc is a Worker backed by a spawned worker process (`dpmr-exp
// -worker`, `dpmr-run -worker`) speaking the JSON-lines protocol over
// its stdin/stdout. The process persists across assignments, so a worker
// serving several shards of one plan reuses its warm state; a process
// that dies mid-shard surfaces as a Run error and the coordinator
// reassigns the shard and respawns the slot, while an in-band shard
// error (ShardError) leaves the healthy process in place.
type Proc struct {
	cmd   *exec.Cmd
	stdin io.Closer
	enc   *json.Encoder
	dec   *json.Decoder

	mu     sync.Mutex
	closed bool
}

// NewProc spawns the worker process and connects its stdio to the
// protocol. Worker diagnostics go to stderr (nil means this process's
// os.Stderr), so a caller capturing its own diagnostics stream gets the
// fleet's too.
func NewProc(stderr io.Writer, name string, args ...string) (*Proc, error) {
	cmd := exec.Command(name, args...)
	if stderr == nil {
		stderr = os.Stderr
	}
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("coord: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("coord: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("coord: starting worker %s: %w", name, err)
	}
	return &Proc{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// Run implements Worker: lease one shard of the Spec's plan to the
// process and block for its completion. Cancelling ctx kills the
// process (the attempt is lost); a process death mid-shard surfaces as
// the decode error.
func (p *Proc) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	pid := p.cmd.Process.Pid
	if err := p.enc.Encode(Assignment{Spec: spec, Shard: shard}); err != nil {
		return nil, fmt.Errorf("coord: worker pid %d: leasing shard %s: %w", pid, shard, err)
	}
	type reply struct {
		c   Completion
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		var c Completion
		err := p.dec.Decode(&c)
		ch <- reply{c, err}
	}()
	select {
	case <-ctx.Done():
		_ = p.Close() // unblocks the decode; this Proc is spent
		return nil, ctx.Err()
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("coord: worker pid %d died mid-shard %s: %v", pid, shard, r.err)
		}
		if r.c.Shard != shard {
			return nil, fmt.Errorf("coord: worker pid %d answered shard %s, was leased %s", pid, r.c.Shard, shard)
		}
		if r.c.Error != "" {
			return nil, &ShardError{Shard: shard, Msg: r.c.Error}
		}
		return []byte(r.c.Payload), nil
	}
}

// Close kills the worker process (if still running) and reaps it. Safe
// to call concurrently with Run — the in-flight attempt then fails —
// and more than once.
func (p *Proc) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	_ = p.stdin.Close()      // EOF would let a healthy idle worker exit…
	_ = p.cmd.Process.Kill() // …but a mid-shard or wedged one is killed outright
	err := p.cmd.Wait()
	if err != nil {
		return fmt.Errorf("coord: worker pid %d: %w", p.cmd.Process.Pid, err)
	}
	return nil
}
