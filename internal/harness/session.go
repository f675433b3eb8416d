package harness

// Session is the context-first execution layer over Spec: Start takes
// the declarative *what* (a Spec) plus functional options for the *how*
// (worker count, compilation, sharding) and runs the
// experiment in the background, streaming typed events — TrialDone,
// Progress, ShardMerged, CacheStats — through a subscription channel
// while it executes. Cancelling the context stops dispatch,
// drains in-flight trials, and Wait returns the completed-prefix
// partial result together with the context's error, so a cancelled
// campaign's finished work is never discarded.

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// sessionConfig is the resolved *how* of a Session, accumulated by the
// functional options.
type sessionConfig struct {
	runner      *Runner
	parallel    int
	parallelSet bool
	reference   bool
	precompile  int
	shard       ShardSpec
	report      io.Writer
}

// Option configures how a Session executes. Options carry only
// execution policy — nothing an Option sets can change what runs, the
// plan, or its fingerprint; that is the Spec's job.
type Option func(*sessionConfig)

// WithParallel fans trials across n worker goroutines (default 1 =
// serial). Results are byte-identical at any count; non-positive counts
// are rejected when the session runs.
func WithParallel(n int) Option {
	return func(c *sessionConfig) { c.parallel, c.parallelSet = n, true }
}

// WithReference executes campaign and overhead trials on the
// tree-walking reference interpreter instead of compiled module
// bytecode. Output is byte-identical either way; the switch exists for
// A/B measurement. Concurrent groups always run compiled.
func WithReference(on bool) Option { return func(c *sessionConfig) { c.reference = on } }

// WithPrecompile launches n background AOT workers that build and
// compile upcoming modules ahead of the execution frontier, overlapping
// stage-1 module construction with stage-2 trial execution (see
// Runner.Precompile). Results are byte-identical at any n; 0 disables
// prefetching.
func WithPrecompile(n int) Option { return func(c *sessionConfig) { c.precompile = n } }

// WithShard restricts the session to shard Index of Count of the Spec's
// canonical trial plan. Campaign and overhead sessions then produce a
// partial result (Result.CampaignPartial / Result.OverheadPartial);
// experiment sessions write an ExperimentPartial JSON document to the
// report writer.
func WithShard(shard ShardSpec) Option { return func(c *sessionConfig) { c.shard = shard } }

// WithRunner executes the session on r instead of a fresh NewRunner, so
// consecutive sessions of one plan reuse its warm module and golden
// caches (a persistent worker). The session still applies its other
// options — and the Spec's declarative fields — to r.
func WithRunner(r *Runner) Option { return func(c *sessionConfig) { c.runner = r } }

// WithReport directs an experiment session's rendered report (or, with
// WithShard, its ExperimentPartial JSON) to w. Campaign and overhead
// sessions return structured results instead and ignore it.
func WithReport(w io.Writer) Option { return func(c *sessionConfig) { c.report = w } }

// Result is what a Session produces, and what RunJournaled,
// MergePayloads and Resume return; which fields are set depends on the
// Spec's kind and on sharding:
//
//   - campaign:   CampaignPartial, plus Campaign when the whole plan ran
//   - overhead:   OverheadPartial, plus Overhead when the whole plan ran
//   - concurrent: ConcurrentPartial, plus Concurrent when the whole
//     plan ran
//   - experiment: nothing here — the report went to WithReport's writer
//
// A cancelled campaign, overhead, or concurrent session still carries
// the completed-prefix partial of its shard. Merges and snapshots set
// only the aggregate.
type Result struct {
	// Spec is the normalized Spec the session ran.
	Spec Spec
	// Campaign is the aggregated result of a whole-plan campaign run.
	Campaign *CampaignResult
	// CampaignPartial holds the shard's (or cancelled run's prefix of)
	// per-trial outcomes.
	CampaignPartial *PartialResult
	// Overhead is the aggregated result of a whole-plan overhead run.
	Overhead *OverheadResult
	// OverheadPartial holds the shard's (or cancelled run's prefix of)
	// cycle measurements.
	OverheadPartial *OverheadPartial
	// Concurrent is the aggregated result of a whole-plan concurrent run.
	Concurrent *ConcurrentResult
	// ConcurrentPartial holds the shard's (or cancelled run's prefix of)
	// per-trial outcomes of a concurrent run.
	ConcurrentPartial *PartialResult
	// Stats is the final module-cache snapshot.
	Stats CacheStats

	part partial // the kind's partial field above, for EncodePartial
}

// Session is a running experiment: a handle to subscribe to its event
// stream and wait for its result. Construct with Start.
type Session struct {
	spec Spec

	done   chan struct{}
	result Result
	err    error

	evMu     sync.Mutex
	evCond   *sync.Cond
	queue    []Event
	finished bool
	evCh     chan Event
}

// Start validates and normalizes the Spec, applies the options, and
// launches the experiment in the background. The returned Session's
// event stream (Events) reports per-trial progress while it runs; Wait
// blocks for the outcome.
//
// Cancelling ctx stops trial dispatch and drains in-flight trials —
// no worker goroutine outlives the session — and Wait then returns the
// completed-prefix partial result together with ctx's error.
func Start(ctx context.Context, spec Spec, opts ...Option) (*Session, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.report == nil {
		cfg.report = io.Discard
	}
	r := cfg.runner
	if r == nil {
		r = NewRunner()
	}
	if cfg.parallelSet {
		r.Parallel = cfg.parallel
	}
	r.Compile = !cfg.reference
	r.Precompile = cfg.precompile
	r.Shard = cfg.shard
	s := &Session{spec: n, done: make(chan struct{})}
	s.evCond = sync.NewCond(&s.evMu)
	r.Events = s.emit
	go s.run(ctx, r, cfg)
	return s, nil
}

// Spec returns the normalized Spec the session runs.
func (s *Session) Spec() Spec { return s.spec }

// Events returns the session's typed event stream. Events arrive in
// emission order and the channel closes when the session finishes; a
// subscriber must consume until close (Drain does) — abandoning the
// channel mid-stream pins the session's remaining buffered events and
// its pump goroutine for the process lifetime. The stream is buffered
// internally, so the engine never blocks on a slow consumer and a
// session whose stream is never subscribed runs unimpeded.
func (s *Session) Events() <-chan Event {
	s.evMu.Lock()
	if s.evCh == nil {
		s.evCh = make(chan Event)
		go s.pump(s.evCh)
	}
	ch := s.evCh
	s.evMu.Unlock()
	return ch
}

// Wait blocks until the session finishes and returns its Result. On
// cancellation err is the context's error and the Result still carries
// the completed-prefix partial (campaign and overhead kinds). Wait may
// be called from any number of goroutines.
func (s *Session) Wait() (Result, error) {
	<-s.done
	return s.result, s.err
}

// Drain consumes the session's event stream through sink (nil discards)
// until it closes, then waits for and returns the result — the one
// consume-and-wait loop the CLIs share.
func (s *Session) Drain(sink func(Event)) (Result, error) {
	if sink == nil {
		sink = func(Event) {}
	}
	for ev := range s.Events() {
		sink(ev)
	}
	return s.Wait()
}

// RenderProgress returns an event sink that renders Progress and
// ShardMerged events as the CLIs' progress lines on w (conventionally
// stderr, so stdout report pipelines stay clean). Sharing the renderer
// keeps the two binaries' progress output from drifting apart.
func RenderProgress(w io.Writer, label string) func(Event) {
	return func(ev Event) {
		switch p := ev.(type) {
		case Progress:
			fmt.Fprintf(w, "\r%s: %d/%d trials (%d modules resident, peak %d, %d evicted)",
				label, p.Done, p.Total, p.Stats.Resident, p.Stats.Peak, p.Stats.Evicted)
			if p.Done == p.Total {
				fmt.Fprintln(w)
			}
		case ShardMerged:
			fmt.Fprintf(w, "%s: merged shard %s: trials [%d, %d) of %d\n",
				label, p.Shard, p.Lo, p.Hi, p.Total)
		}
	}
}

// emit appends one event to the subscription queue. It is the Runner's
// Events sink, so calls are already serialized.
func (s *Session) emit(ev Event) {
	s.evMu.Lock()
	s.queue = append(s.queue, ev)
	s.evCond.Signal()
	s.evMu.Unlock()
}

// finish marks the stream complete. No emit may follow.
func (s *Session) finish() {
	s.evMu.Lock()
	s.finished = true
	s.evCond.Signal()
	s.evMu.Unlock()
	close(s.done)
}

// pump forwards the queued events to the subscription channel, closing
// it once the session has finished and the queue is drained.
func (s *Session) pump(ch chan Event) {
	for {
		s.evMu.Lock()
		for len(s.queue) == 0 && !s.finished {
			s.evCond.Wait()
		}
		q := s.queue
		s.queue = nil
		fin := s.finished
		s.evMu.Unlock()
		for _, ev := range q {
			ch <- ev
		}
		if fin {
			// finished is set strictly after the last emit, so an empty
			// queue here is final.
			close(ch)
			return
		}
	}
}

// run executes the experiment and resolves the session.
func (s *Session) run(ctx context.Context, r *Runner, cfg sessionConfig) {
	s.result.Spec = s.spec
	if s.spec.kind() == nil {
		o := Options{Reference: cfg.reference, Events: s.emit, Runner: r}
		if cfg.parallel != 0 {
			o.Parallel = cfg.parallel
		}
		if cfg.shard.IsZero() {
			s.err = Generate(ctx, s.spec, cfg.report, o)
		} else {
			r.Shard = ShardSpec{} // GenerateSharded re-shards per sub-plan
			s.err = GenerateSharded(ctx, s.spec, cfg.shard, cfg.report, o)
		}
	} else {
		pl, p, err := r.runShard(ctx, s.spec, "", "Start")
		s.err = err
		if p != nil {
			s.result.part = p
			pl.keep(&s.result, p)
			if sp := p.span(); err == nil && sp.lo == 0 && sp.hi == sp.total {
				pl.aggregate(&s.result, []partial{p})
			}
		}
	}
	s.result.Stats = r.CacheStats()
	s.emit(s.result.Stats)
	s.finish()
}
