package coordnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

// net/keepalive blackholes a worker's pong: the ping arrives and is
// swallowed, so the daemon's sweep sees a silent socket and must drop
// the worker within its keepalive timeout — the detection path a
// half-dead connection (live TCP, wedged process) exercises.
var siteKeepalive = failpt.Register("net/keepalive", failpt.KindDrop)

// RemoteWorker is the daemon's handle on one connected worker process:
// a coord.Worker whose Run ships the assignment over the socket and
// waits for the completion. The connection carries one assignment at a
// time (the pool checks a worker out per shard), so replies arrive in
// request order; stray pongs from an earlier keepalive are skipped.
type RemoteWorker struct {
	conn net.Conn
	addr string

	mu     sync.Mutex
	closed bool

	// replies is fed by a single reader goroutine started on first use,
	// so Run can select between the completion and ctx cancellation.
	readOnce sync.Once
	replies  chan readResult
}

type readResult struct {
	reply workerReply
	err   error
}

// newRemoteWorker wraps a connection that completed a worker handshake.
func newRemoteWorker(conn net.Conn) *RemoteWorker {
	return &RemoteWorker{
		conn:    conn,
		addr:    conn.RemoteAddr().String(),
		replies: make(chan readResult, 4),
	}
}

// Addr names the worker's remote endpoint, for logs.
func (w *RemoteWorker) Addr() string { return w.addr }

func (w *RemoteWorker) startReader() {
	w.readOnce.Do(func() {
		go func() {
			for {
				var reply workerReply
				err := readFrame(w.conn, &reply)
				w.replies <- readResult{reply, err}
				if err != nil {
					close(w.replies)
					return
				}
			}
		}()
	})
}

// Run ships one shard assignment and waits for its completion. A
// completion carrying an in-band error surfaces as *coord.ShardError —
// the worker stays healthy and returns to the pool. Any transport
// failure (severed socket, truncated frame, ctx cancellation) is a
// plain error: the coordinator closes this worker and re-leases the
// shard elsewhere, exactly as if a spawned process had died.
func (w *RemoteWorker) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	w.startReader()
	if err := writeFrame(w.conn, workerFrame{Assign: &coord.Assignment{Spec: spec, Shard: shard}}); err != nil {
		return nil, fmt.Errorf("coordnet: assigning shard to %s: %w", w.addr, err)
	}
	for {
		select {
		case <-ctx.Done():
			// Unblock the reader: the connection is no longer usable once
			// an assignment is abandoned mid-flight.
			w.Close()
			return nil, ctx.Err()
		case res, ok := <-w.replies:
			if !ok {
				return nil, fmt.Errorf("coordnet: worker %s: connection closed", w.addr)
			}
			if res.err != nil {
				return nil, fmt.Errorf("coordnet: worker %s: %w", w.addr, res.err)
			}
			if res.reply.Pong {
				// A keepalive answered after its deadline; the completion
				// is still in flight.
				continue
			}
			c := res.reply.Completion
			if c == nil {
				return nil, fmt.Errorf("coordnet: worker %s: frame with neither pong nor completion", w.addr)
			}
			if c.Shard != shard {
				return nil, fmt.Errorf("coordnet: worker %s answered shard %s, was leased %s", w.addr, c.Shard, shard)
			}
			if c.Error != "" {
				return nil, &coord.ShardError{Shard: shard, Msg: c.Error}
			}
			return c.Payload, nil
		}
	}
}

// ping verifies the worker is alive: one ping frame, one pong within
// timeout. Used by the daemon's keepalive sweep on idle workers only, so
// a pong is the sole frame in flight.
func (w *RemoteWorker) ping(timeout time.Duration) error {
	w.startReader()
	if err := writeFrame(w.conn, workerFrame{Ping: true}); err != nil {
		return fmt.Errorf("coordnet: pinging %s: %w", w.addr, err)
	}
	select {
	case res, ok := <-w.replies:
		if !ok {
			return fmt.Errorf("coordnet: worker %s: connection closed", w.addr)
		}
		if res.err != nil {
			return fmt.Errorf("coordnet: worker %s: %w", w.addr, res.err)
		}
		if !res.reply.Pong {
			return fmt.Errorf("coordnet: worker %s: expected pong, got another frame", w.addr)
		}
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("coordnet: worker %s: no pong within %v", w.addr, timeout)
	}
}

// Close severs the connection. Idempotent; also the chaos drill's knife.
func (w *RemoteWorker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.conn.Close()
}

// dialFleet connects and completes the worker handshake.
func dialFleet(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	if err := dialerHandshake(conn, roleWorker); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// serveFleetConn serves assignments on an established, handshaken fleet
// connection until it drops or ctx ends.
func serveFleetConn(ctx context.Context, conn net.Conn, addr string, run func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error)) error {
	defer conn.Close()
	// Cancellation severs the connection, unblocking the read below. The
	// daemon sees an expired lease and re-assigns; our journal-free exit
	// is safe because shard results are pure.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	for {
		var frame workerFrame
		if err := readFrame(conn, &frame); err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("coordnet: fleet connection to %s: %w", addr, err)
		}
		switch {
		case frame.Ping:
			if act := failpt.Eval(siteKeepalive); act != nil && act.Kind == failpt.KindDrop {
				continue // blackhole: swallow the ping, send no pong
			}
			if err := writeFrame(conn, workerReply{Pong: true}); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("coordnet: answering keepalive from %s: %w", addr, err)
			}
		case frame.Assign != nil:
			a := frame.Assign
			payload, err := run(ctx, a.Spec, a.Shard)
			c := coord.Completion{Shard: a.Shard}
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				c.Error = err.Error()
			} else {
				c.Payload = payload
			}
			if err := writeFrame(conn, workerReply{Completion: &c}); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("coordnet: reporting shard %d to %s: %w", a.Shard.Index, addr, err)
			}
		default:
			return fmt.Errorf("coordnet: fleet connection to %s: frame with neither ping nor assignment", addr)
		}
	}
}
