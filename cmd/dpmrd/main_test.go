package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFlagValidation: every invalid invocation is a named exit-2 usage
// error — the daemon must refuse bad configuration loudly, not start
// half-configured or hang.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"no mode", nil, 2, "one of -listen"},
		{"both modes", []string{"-listen", "127.0.0.1:0", "-connect", "127.0.0.1:9"}, 2, "mutually exclusive"},
		{"positional", []string{"-listen", "127.0.0.1:0", "stray"}, 2, "unexpected arguments"},
		{"workers on connect", []string{"-connect", "127.0.0.1:9", "-workers", "2"}, 2, "-workers applies to the daemon"},
		{"journal on connect", []string{"-connect", "127.0.0.1:9", "-journal", "j"}, 2, "-journal applies to the daemon"},
		{"chaos on connect", []string{"-connect", "127.0.0.1:9", "-chaos", "1"}, 2, "-chaos applies to the daemon"},
		{"negative workers", []string{"-listen", "127.0.0.1:0", "-workers", "-1"}, 2, "negative slots"},
		{"zero lease", []string{"-listen", "127.0.0.1:0", "-lease", "0s"}, 2, "must be positive"},
		{"negative keepalive", []string{"-listen", "127.0.0.1:0", "-keepalive", "-1s"}, 2, "negative interval"},
		{"negative chaos", []string{"-listen", "127.0.0.1:0", "-chaos", "-2"}, 2, "negative sever count"},
		{"zero parallel", []string{"-listen", "127.0.0.1:0", "-parallel", "0"}, 2, "-parallel 0: campaigns need at least 1 worker"},
		{"negative parallel", []string{"-connect", "127.0.0.1:9", "-parallel", "-1"}, 2, "-parallel -1: campaigns need at least 1 worker"},
		{"unknown flag", []string{"-nope"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestBadListenAddressFailsFast: an unbindable -listen value is a named
// exit-1 error, not a hang.
func TestBadListenAddressFailsFast(t *testing.T) {
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(context.Background(), []string{"-listen", "256.0.0.1:port"}, io.Discard, &stderr) }()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("exit code = %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "listen tcp") {
			t.Errorf("stderr %q does not name the listen failure", stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bad -listen address hung instead of failing")
	}
}

// TestBadConnectAddressFailsFast: a worker pointed at a dead daemon is a
// named exit-1 error.
func TestBadConnectAddressFailsFast(t *testing.T) {
	var stderr bytes.Buffer
	sock := filepath.Join(t.TempDir(), "no-daemon.sock")
	done := make(chan int, 1)
	go func() { done <- run(context.Background(), []string{"-connect", sock}, io.Discard, &stderr) }()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("exit code = %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "dial unix") {
			t.Errorf("stderr %q does not name the dial failure", stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bad -connect address hung instead of failing")
	}
}

// TestGracefulDrain: a daemon on a Unix socket starts listening, then
// exits 0 when its context is cancelled (the SIGTERM path).
func TestGracefulDrain(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "fleet.sock")
	ctx, cancel := context.WithCancel(context.Background())
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"-listen", sock, "-workers", "1"}, io.Discard, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never bound its socket")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drained daemon exited %d (stderr: %s)", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained") {
			t.Errorf("stderr %q does not confirm the drain", stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
}
