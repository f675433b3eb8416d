package coordnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
)

// chaosSeverDelay is how long after a chaos-targeted worker's checkout
// its socket is severed: long enough for the assignment to reach the
// worker, short enough to land mid-shard — the same knife timing as the
// coordinator's process-kill drill.
const chaosSeverDelay = 25 * time.Millisecond

// fleetWorker is what the daemon's pool holds: a coord.Worker the
// keepalive sweep can health-check, remote (a joined socket) or local
// (an in-process slot with its own warm Runner).
type fleetWorker interface {
	coord.Worker
	ping(timeout time.Duration) error
	remote() bool
}

// localWorker is an in-process fleet slot. The pool checks a worker out
// per shard, so Run is serial.
type localWorker struct{ *coord.Local }

func (localWorker) ping(time.Duration) error { return nil }
func (localWorker) remote() bool             { return false }
func (w *RemoteWorker) remote() bool         { return true }

// pool is the daemon's shared worker fleet: a FIFO of idle workers that
// submissions check out one shard at a time. Checkout granularity is the
// fairness mechanism — with several campaigns multiplexed, each finished
// shard returns its worker to the queue and the next checkout may serve
// a different client, so no submission can monopolize the fleet.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	idle   []fleetWorker
	total  int // idle + checked out
	closed bool
}

func newPool() *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// add hands a worker to the pool (a joined remote, or a local slot).
func (p *pool) add(w fleetWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = w.Close()
		return
	}
	p.idle = append(p.idle, w)
	p.total++
	p.cond.Broadcast()
}

// get checks out the next idle worker, blocking until one frees up, the
// pool closes, or ctx ends. A worker joining mid-wait satisfies an
// already-blocked submission.
func (p *pool) get(ctx context.Context) (fleetWorker, error) {
	// Wake the wait loop when ctx ends; cond has no native ctx support.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.idle) == 0 && !p.closed && ctx.Err() == nil {
		p.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(p.idle) == 0 {
		return nil, errors.New("coordnet: worker pool closed")
	}
	w := p.idle[0]
	p.idle = p.idle[1:]
	return w, nil
}

// put returns a healthy worker after its shard.
func (p *pool) put(w fleetWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = w.Close()
		p.total--
		return
	}
	p.idle = append(p.idle, w)
	p.cond.Broadcast()
}

// discard drops a dead worker (severed socket, failed ping).
func (p *pool) discard(w fleetWorker) {
	_ = w.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total--
}

// size reports the fleet size, checked-out workers included.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// takeIdleRemotes removes and returns every idle remote worker — the
// keepalive sweep's snapshot. Local workers have nothing to health-check
// and stay put.
func (p *pool) takeIdleRemotes() []fleetWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var remotes []fleetWorker
	keep := p.idle[:0]
	for _, w := range p.idle {
		if w.remote() {
			remotes = append(remotes, w)
		} else {
			keep = append(keep, w)
		}
	}
	p.idle = keep
	return remotes
}

// close drains the pool: idle workers are closed now (a remote worker's
// WorkerLoop sees the close as an orderly EOF), checked-out workers
// are closed as their shards return.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.total -= len(idle)
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, w := range idle {
		_ = w.Close()
	}
}

// ServerConfig parameterizes the dpmrd campaign service.
type ServerConfig struct {
	// LocalWorkers is how many in-process worker slots the daemon itself
	// contributes to the fleet, each with a persistent Runner. 0 means
	// the fleet is remote joiners only.
	LocalWorkers int
	// WorkerOptions is the execution policy of the daemon's local
	// workers. Its Runner is not shared: each slot runs on a persistent
	// Runner of its own.
	WorkerOptions harness.Options
	// JournalRoot, when set, journals every campaign, overhead and
	// concurrent submission under JournalRoot/<spec fingerprint prefix>/
	// — a client that disconnects mid-run and resubmits the identical
	// Spec resumes from the journaled spans instead of starting over.
	// Experiment submissions, which run several plans, are not
	// journaled.
	JournalRoot string
	// Lease bounds one shard assignment (see coord.Config.Lease); it is
	// also what unsticks a submission whose whole fleet died — every
	// attempt expires, MaxAttempts exhausts, and the submission fails by
	// name instead of hanging. 0 means a 5-minute default; there is
	// deliberately no way to disable it on the network path.
	Lease time.Duration
	// Keepalive, when positive, pings idle remote workers at this
	// interval and drops the unresponsive, so a silently dead socket is
	// discovered before a shard is wasted on it.
	Keepalive time.Duration
	// KeepaliveTimeout bounds how long the sweep waits for a pong
	// before declaring a worker dead. 0 defaults to the Keepalive
	// interval — the old coupled behavior — while a separate value lets
	// a tight sweep cadence tolerate slow-but-alive workers (or, set
	// short, catch blackholed sockets fast).
	KeepaliveTimeout time.Duration
	// Chaos severs this many remote worker sockets mid-shard — the
	// transport-level fault drill. Severed workers are expected to
	// reconnect (dpmrd -connect redials); the interrupted shards ride
	// the ordinary lease/retry path.
	Chaos int
	// Log, when non-nil, receives daemon diagnostics. Calls are
	// serialized.
	Log func(format string, args ...any)
}

// Server is the dpmrd campaign service: one listener, a shared worker
// pool, many concurrent client submissions.
type Server struct {
	cfg   ServerConfig
	pool  *pool
	chaos int64

	// fleetHealth scores the remote fleet as a whole: worker sockets
	// dying mid-shard drive it down, completed remote shards drive it
	// up. Below threshold, rejoining workers are admitted with a
	// backoff instead of instantly — a fleet flapping against a
	// persistent fault (bad build, poisoned spec, dying host) must not
	// churn join/sever/join at socket speed.
	fleetHealth *coord.Breaker

	logMu sync.Mutex

	claimMu sync.Mutex
	claims  map[string]bool // journal dirs in use, by spec fingerprint

	conns sync.WaitGroup
}

// NewServer builds the service and seeds its pool with the configured
// local workers.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Lease <= 0 {
		cfg.Lease = 5 * time.Minute
	}
	if cfg.KeepaliveTimeout <= 0 {
		cfg.KeepaliveTimeout = cfg.Keepalive
	}
	s := &Server{
		cfg:         cfg,
		pool:        newPool(),
		chaos:       int64(cfg.Chaos),
		fleetHealth: coord.NewBreaker(coord.DefaultQuarantine),
		claims:      make(map[string]bool),
	}
	for i := 0; i < cfg.LocalWorkers; i++ {
		s.pool.add(localWorker{coord.NewLocal(cfg.WorkerOptions)})
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.Log(format, args...)
}

// FleetSize reports the current worker count (local + joined remotes).
func (s *Server) FleetSize() int { return s.pool.size() }

// Serve accepts worker joins and client submissions on ln until ctx is
// cancelled, then drains: the listener closes immediately, in-flight
// submissions run to completion (only their own client's disconnect
// cancels them), and the fleet's connections are closed last so remote
// workers exit cleanly.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stopClose := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stopClose()

	sweepDone := make(chan struct{})
	sweepExit := make(chan struct{})
	if s.cfg.Keepalive > 0 {
		go func() {
			defer close(sweepExit)
			t := time.NewTicker(s.cfg.Keepalive)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.sweep()
				case <-sweepDone:
					return
				}
			}
		}()
	} else {
		close(sweepExit)
	}

	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = fmt.Errorf("coordnet: accept: %w", err)
			}
			break
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.handle(ctx, conn)
		}()
	}

	s.conns.Wait()
	close(sweepDone)
	<-sweepExit
	s.pool.close()
	return acceptErr
}

// sweep pings every idle remote worker and drops the unresponsive.
func (s *Server) sweep() {
	for _, w := range s.pool.takeIdleRemotes() {
		if err := w.ping(s.cfg.KeepaliveTimeout); err != nil {
			s.logf("dpmrd: keepalive dropped a worker: %v", err)
			s.pool.discard(w)
			continue
		}
		s.pool.put(w)
	}
}

// handle runs one accepted connection: handshake, then route by role. A
// worker connection is handed to the pool (and lives past this call); a
// client connection is served to completion here.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	role, err := listenerHandshake(conn)
	if err != nil {
		s.logf("dpmrd: %v", err)
		_ = conn.Close()
		return
	}
	switch role {
	case roleWorker:
		w := newRemoteWorker(conn)
		// A flapping fleet rejoins through the breaker: the worker is
		// admitted, but only after the fleet's quarantine backoff, so a
		// persistent fault cannot churn join/sever/join at socket speed.
		if d := s.fleetHealth.Backoff(); d > 0 {
			s.logf("dpmrd: fleet flapping (health %.2f): quarantining join from %s for %v",
				s.fleetHealth.Score(), w.Addr(), d.Round(time.Millisecond))
			time.AfterFunc(d, func() { s.pool.add(w) })
			return
		}
		s.logf("dpmrd: worker joined from %s", w.Addr())
		s.pool.add(w)
	case roleClient:
		defer conn.Close()
		s.serveClient(conn)
	}
}

// serveClient runs one submission: read the Spec, execute it against the
// shared fleet, stream shard events back, finish with the result frame.
// The submission's context is independent of the serve context — a
// draining daemon finishes accepted work — and is cancelled the moment
// the client's connection drops, releasing its workers mid-campaign
// (the journal, when configured, preserves completed spans for resume).
func (s *Server) serveClient(conn net.Conn) {
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return
	}
	var req submitRequest
	if err := readFrame(conn, &req); err != nil {
		s.logf("dpmrd: reading submission from %s: %v", conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Disconnect watchdog: the protocol has no further client frames, so
	// any read activity — data or error — means the client is gone.
	go func() {
		var buf [1]byte
		_, _ = conn.Read(buf[:])
		cancel()
	}()

	// Event writes and the final result frame are sequential (events come
	// from the coordinator's single scheduling loop, the result after it
	// returns), so the connection has one writer. A write failure means
	// the client is gone; the watchdog cancels, no need to act here.
	emit := func(ev harness.Event) {
		data, err := harness.EncodeEvent(ev)
		if err != nil {
			return
		}
		_ = writeFrame(conn, serverFrame{Event: data})
	}

	spec, err := req.Spec.Normalized()
	result := &submitResult{}
	if err == nil {
		var fp string
		if fp, err = spec.Fingerprint(); err == nil {
			s.logf("dpmrd: %s: submitted spec %.12s (%s %s)", conn.RemoteAddr(), fp, spec.Kind, spec.Exp)
			result.Payloads, err = s.execute(ctx, spec, fp, emit)
		}
	}
	if err != nil {
		s.logf("dpmrd: %s: submission failed: %v", conn.RemoteAddr(), err)
		result.Error = err.Error()
		result.Payloads = nil
	}
	if err := writeFrame(conn, serverFrame{Done: result}); err != nil {
		s.logf("dpmrd: %s: delivering result: %v", conn.RemoteAddr(), err)
	}
}

// spawnProxy is the coordinator's worker factory: every fleet slot is a
// proxy that checks a physical worker out of the shared pool per shard.
func (s *Server) spawnProxy(int) (coord.Worker, error) {
	return &poolProxy{s: s}, nil
}

// execute schedules one normalized Spec onto the fleet and returns its
// shard payloads in ascending trial order. A campaign, overhead or
// concurrent Spec runs through its per-fingerprint journal dir when the
// daemon journals: spans already journaled (by an earlier submission the
// client abandoned) replay instead of re-running, only the gaps are
// leased, and every first-completed span is durable before the client
// hears of it.
func (s *Server) execute(ctx context.Context, spec harness.Spec, fp string, emit func(harness.Event)) ([][]byte, error) {
	// With no fleet yet one proxy slot runs anyway: it blocks in checkout
	// until a worker joins, bounded by the lease/attempt limits.
	workers := max(s.pool.size(), 1)
	cfg := coord.Config{
		Spec:    spec,
		Shards:  2 * workers,
		Workers: workers,
		Lease:   s.cfg.Lease,
		Spawn:   s.spawnProxy,
		OnResult: func(shard harness.ShardSpec, payload []byte) error {
			emit(harness.MergedEvent(shard, payload))
			return nil
		},
		Log: s.logf,
	}
	if spec.Kind != harness.SpecExperiment && s.cfg.JournalRoot != "" {
		if s.claimJournal(fp) {
			defer s.releaseJournal(fp)
			j, c, err := s.resume(spec, fp)
			if err != nil {
				return nil, err
			}
			defer func() {
				_ = j.Close()
				// A journal that degraded mid-campaign (disk full, fsync
				// failure) did not stop the run — results stream to the
				// client regardless — but the lossy state must be named:
				// the next submission of this Spec cannot resume from it.
				if derr := j.Degraded(); derr != nil {
					s.logf("dpmrd: spec %.12s: journal degraded, campaign completed but cannot be resumed: %v", fp, derr)
				}
			}()
			cfg.Resume = c
		} else {
			// The same Spec is already running journaled (a concurrent
			// duplicate submission); run this one plain rather than fight
			// over the journal file.
			s.logf("dpmrd: spec %.12s already journaling, running duplicate unjournaled", fp)
		}
	}
	return coord.Run(ctx, cfg)
}

// resume opens the Spec's journal under JournalRoot — resuming it when
// an earlier submission left one — and diffs the plan against it.
func (s *Server) resume(spec harness.Spec, fp string) (*journal.Journal, *harness.Resume, error) {
	dir := filepath.Join(s.cfg.JournalRoot, fp[:16])
	_, statErr := os.Stat(filepath.Join(dir, journal.FileName))
	j, rp, err := harness.OpenJournal(dir, statErr == nil, spec)
	if err != nil {
		return nil, nil, err
	}
	c, err := harness.NewRunner().Resume(spec, j, rp)
	if err != nil {
		_ = j.Close()
		return nil, nil, err
	}
	if d := c.Done(); d > 0 {
		s.logf("dpmrd: spec %.12s resumes with %d of %d trials journaled", fp, d, c.Total)
	}
	return j, c, nil
}

func (s *Server) claimJournal(fp string) bool {
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	if s.claims[fp] {
		return false
	}
	s.claims[fp] = true
	return true
}

func (s *Server) releaseJournal(fp string) {
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	delete(s.claims, fp)
}

// poolProxy is one coordinator fleet slot: each Run checks a physical
// worker out of the shared pool, runs the shard, and returns the worker
// — shard-granular interleaving across every concurrent submission. A
// transport failure discards the physical worker (a reconnecting joiner
// replaces it); an in-band ShardError returns it warm.
type poolProxy struct {
	s *Server
}

func (p *poolProxy) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	w, err := p.s.pool.get(ctx)
	if err != nil {
		return nil, err
	}
	if w.remote() && atomic.AddInt64(&p.s.chaos, -1) >= 0 {
		p.s.logf("dpmrd: chaos sever armed on a worker socket")
		time.AfterFunc(chaosSeverDelay, func() { _ = w.Close() })
	}
	payload, err := w.Run(ctx, spec, shard)
	if err != nil {
		var inBand *coord.ShardError
		if errors.As(err, &inBand) {
			p.s.pool.put(w)
		} else {
			// A transport death scores against the fleet's health; the
			// breaker throttles rejoins once deaths outpace completions.
			if w.remote() && ctx.Err() == nil {
				p.s.fleetHealth.Fail()
			}
			p.s.pool.discard(w)
		}
		return nil, err
	}
	if w.remote() {
		p.s.fleetHealth.OK()
	}
	p.s.pool.put(w)
	return payload, nil
}

// Close implements coord.Worker; the proxy owns nothing between shards.
func (p *poolProxy) Close() error { return nil }

// WorkerLoop joins the daemon's fleet at addr and serves assignments
// until ctx ends, reconnecting with backoff when the socket drops (a
// chaos sever, a daemon restart mid-lease). The first connection must
// succeed — a bad address or version mismatch is a named setup error,
// not a drop to ride out — while a failed *re*join after having served
// means the daemon is gone for good (drained), which is an orderly
// exit. Every assignment runs on one coord.Local under opts, so the
// worker's Runner stays warm across rejoins. onJoin, when non-nil,
// observes each successful (re)join.
func WorkerLoop(ctx context.Context, addr string, opts harness.Options, onJoin func(rejoin bool)) error {
	local := coord.NewLocal(opts)
	joined := false
	backoff := 100 * time.Millisecond
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		conn, err := dialFleet(ctx, addr)
		if err != nil {
			if !joined {
				return err
			}
			return nil
		}
		if onJoin != nil {
			onJoin(joined)
		}
		joined = true
		_ = serveFleetConn(ctx, conn, addr, local.Payload)
		if ctx.Err() != nil {
			return nil
		}
		// Severed mid-fleet: back off briefly, then rejoin. The delay is
		// jittered in [backoff/2, backoff] — when a daemon restart severs a
		// whole fleet at once, its workers must not redial in lockstep.
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}
