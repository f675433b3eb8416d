package coordnet

// White-box transport drills that need the frame vocabulary directly.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// TestCompletionThenSocketCloseDelivers drills the worker that dies in
// the gap between sending its Completion and the socket closing: the
// completion must still be delivered (the shard is not re-run for a
// result already on the wire), and the death must surface as a
// transport error on the worker's next use — never a half-alive pool
// slot. Together with the coordinator's duplicate discard this is why
// a worker crash right after reporting cannot double-count a shard.
func TestCompletionThenSocketCloseDelivers(t *testing.T) {
	daemonSide, workerSide := net.Pipe()
	w := newRemoteWorker(daemonSide)
	defer w.Close()

	shard := harness.ShardSpec{Index: 0, Count: 2}
	want := []byte(`{"shard":0}`)
	go func() {
		var f workerFrame
		if err := readFrame(workerSide, &f); err != nil || f.Assign == nil {
			workerSide.Close()
			return
		}
		// Report the shard, then die before anything else touches the
		// socket — the crash window this test exists for.
		_ = writeFrame(workerSide, workerReply{Completion: &coord.Completion{Shard: f.Assign.Shard, Payload: want}})
		workerSide.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := w.Run(ctx, harness.Spec{}, shard)
	if err != nil {
		t.Fatalf("completion sent before the socket died was lost: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload %s, want %s", got, want)
	}

	if _, err := w.Run(ctx, harness.Spec{}, shard); err == nil {
		t.Fatal("dead worker accepted a second assignment; the death went undetected")
	}
}

// TestDaemonRefusesOversizedSpec: a fifty-million-run campaign gets the
// named ErrRuns refusal, never a plan. Submit refuses it before dialing;
// a client that skips that check and sends the raw Spec gets the same
// refusal back from the daemon in the submission's result frame.
func TestDaemonRefusesOversizedSpec(t *testing.T) {
	spec := harness.CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []harness.Variant{harness.Stdapp()})
	spec.Runs = 50_000_000

	srv := NewServer(ServerConfig{LocalWorkers: 1})
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	if _, err := Submit(ctx, addr, spec, nil); !errors.Is(err, harness.ErrRuns) {
		t.Fatalf("Submit: err %v, want %v", err, harness.ErrRuns)
	}

	conn, err := dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := dialerHandshake(conn, roleClient); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, submitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	for {
		var frame serverFrame
		if err := readFrame(conn, &frame); err != nil {
			t.Fatalf("daemon sent no result: %v", err)
		}
		if frame.Done == nil {
			continue
		}
		if !strings.Contains(frame.Done.Error, harness.ErrRuns.Error()) || frame.Done.Payloads != nil {
			t.Fatalf("daemon answered %+v, want the %q refusal", frame.Done, harness.ErrRuns)
		}
		return
	}
}
