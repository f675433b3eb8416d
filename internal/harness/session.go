package harness

// Session is the context-first execution layer over Spec: Start takes
// the declarative *what* (a Spec) plus the execution policy, the *how*
// (Options: worker count, reference interpreter, shard, warm Runner),
// and runs the experiment in the background, streaming typed events —
// TrialDone, Progress, ShardMerged, CacheStats — through a subscription
// channel while it executes. Cancelling the context stops dispatch,
// drains in-flight trials, and Wait returns the completed-prefix
// partial result together with the context's error, so a cancelled
// campaign's finished work is never discarded.

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// Result is what a Session produces, and what RunJournaled,
// MergePayloads and Resume return: the Spec, the aggregate of a whole
// plan, and the partial a session ran.
//
// A campaign, overhead or concurrent session carries its shard's
// partial — on cancellation the completed prefix — and the aggregate
// when the whole plan ran. Merges and snapshots carry only the
// aggregate. An experiment session carries neither: its report went to
// the session's report writer.
type Result struct {
	// Spec is the normalized Spec the session ran.
	Spec Spec
	// Stats is the final module-cache snapshot.
	Stats CacheStats

	agg  any     // *CampaignResult, *OverheadResult or *ConcurrentResult
	part partial // the partial a session ran, for EncodePartial
}

// Campaign returns the aggregate of a whole-plan campaign result, or
// nil.
func (res Result) Campaign() *CampaignResult {
	cr, _ := res.agg.(*CampaignResult)
	return cr
}

// overhead and concurrent are the package's typed views of the other
// two aggregates; like Campaign they return nil for another kind.
func (res Result) overhead() *OverheadResult {
	or, _ := res.agg.(*OverheadResult)
	return or
}

func (res Result) concurrent() *ConcurrentResult {
	cr, _ := res.agg.(*ConcurrentResult)
	return cr
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

// Start validates and normalizes the Spec and launches the experiment
// in the background under the execution policy opts. An experiment
// Spec's report — or, with opts.Shard, its ExperimentPartial JSON — goes
// to report (nil discards it); campaign, overhead and concurrent
// sessions return structured results instead. The returned Session's
// event stream (Events) reports per-trial progress while it runs; Wait
// blocks for the outcome.
//
// Cancelling ctx stops trial dispatch and drains in-flight trials —
// no worker goroutine outlives the session — and Wait then returns the
// completed-prefix partial result together with ctx's error.
func Start(ctx context.Context, spec Spec, report io.Writer, opts Options) (*Session, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if report == nil {
		report = io.Discard
	}
	if opts.Runner == nil {
		opts.Runner = NewRunner()
	}
	s := &Session{spec: n, done: make(chan struct{})}
	s.evCond = sync.NewCond(&s.evMu)
	sink := opts.Events
	opts.Events = func(ev Event) {
		if sink != nil {
			sink(ev)
		}
		s.emit(ev)
	}
	go s.run(ctx, report, opts)
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
func (s *Session) run(ctx context.Context, report io.Writer, opts Options) {
	s.result.Spec = s.spec
	switch {
	case s.spec.kind() != nil:
		pl, p, err := opts.Apply().runShard(ctx, s.spec, "", "Start")
		s.err = err
		if p != nil {
			s.result.part = p
			if sp := p.span(); err == nil && sp.lo == 0 && sp.hi == sp.total {
				s.result.agg = pl.aggregate([]partial{p})
			}
		}
	case opts.Shard.IsZero():
		s.err = Generate(ctx, s.spec, report, opts)
	default:
		s.err = GenerateSharded(ctx, s.spec, opts.Shard, report, opts)
	}
	s.result.Stats = opts.Runner.CacheStats()
	s.emit(s.result.Stats)
	s.finish()
}
