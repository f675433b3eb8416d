// Package coordnet promotes the coordinator's JSON Assignment/Completion
// protocol from stdio pipes to a network transport: a campaign service
// (Server, the dpmrd daemon) that schedules Specs submitted by many
// concurrent clients onto a persistent fleet of remote and in-process
// workers.
//
// The wire format is deliberately thin: every message is one
// length-delimited frame — a 4-byte big-endian byte count followed by
// exactly that many bytes of JSON — and the JSON inside reuses the
// existing protocol types (coord.Assignment, coord.Completion,
// harness.Spec, the Session event wire form) unchanged. A connection
// opens with a versioned hello naming the protocol and Spec-schema
// versions plus the peer's role (worker or client); any mismatch is
// refused by name before the first assignment, never negotiated around.
//
// Faults are the coordinator's existing vocabulary: a severed worker
// socket surfaces as a failed attempt, so the shard is re-leased exactly
// as if a spawned worker process had died — and because every shard of a
// plan is a pure function of its range, the re-delivered result merges
// byte-identically under the downstream fingerprint + exact-tiling
// validation. Nothing about correctness lives in the transport.
package coordnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"

	"dpmr/internal/failpt"
)

// Failpoint sites on the framing layer, where every byte of the
// protocol passes: net/frame-write severs the connection before (or,
// torn, partway through) a frame goes out; net/frame-read severs it
// before a frame is read. Both misbehaviors surface to the peers as
// the transport failures they already know how to survive — re-leased
// shards, redialed fleets, refused submissions — which is exactly the
// claim the torture drill checks.
var (
	siteFrameWrite = failpt.Register("net/frame-write", failpt.KindSever, failpt.KindTorn)
	siteFrameRead  = failpt.Register("net/frame-read", failpt.KindSever)
)

// sever closes the underlying connection when the stream has one — the
// injected cut must look like a real dead socket to both ends, not a
// polite error on one.
func sever(stream any) {
	if c, ok := stream.(io.Closer); ok {
		_ = c.Close()
	}
}

// Protocol identity, checked by the hello handshake before any
// assignment or submission flows.
const (
	// ProtoVersion is the framing + message-schema version of this
	// package. Bump it when the wire format changes incompatibly.
	ProtoVersion = 1
	// SpecSchemaVersion names the harness.Spec / plan-fingerprint schema
	// the peers must share (v2: canonical Spec JSON + enumerated sites).
	// Two builds with different Spec schemas would compute different
	// plans from one Spec; refusing the handshake beats a cryptic merge
	// rejection half a campaign later.
	SpecSchemaVersion = 2
)

// maxFrame bounds one frame's payload. Shard partials for realistic
// campaigns are well under this; anything larger is a corrupt or hostile
// length header, and refusing it beats a multi-gigabyte allocation.
const maxFrame = 64 << 20

// Network classifies a listen/dial address: anything containing a path
// separator (or an abstract-socket @ prefix) is a Unix socket, the rest
// is TCP host:port. One rule shared by Listen and Dial, so a dpmrd
// -listen address is always dialable by the same spelling.
func Network(addr string) string {
	if strings.Contains(addr, "/") || strings.HasPrefix(addr, "@") {
		return "unix"
	}
	return "tcp"
}

// Listen opens the daemon's listener on a TCP host:port or Unix socket
// path (see Network). Errors name the address and network — a bad
// -listen value must fail loudly, not hang.
func Listen(addr string) (net.Listener, error) {
	nw := Network(addr)
	ln, err := net.Listen(nw, addr)
	if err != nil {
		return nil, fmt.Errorf("coordnet: listen %s %q: %w", nw, addr, err)
	}
	return ln, nil
}

// dial connects to a daemon address under ctx's cancellation.
func dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	nw := Network(addr)
	conn, err := d.DialContext(ctx, nw, addr)
	if err != nil {
		return nil, fmt.Errorf("coordnet: dial %s %q: %w", nw, addr, err)
	}
	return conn, nil
}

// writeFrame sends v as one length-delimited JSON frame. The header and
// payload go out in a single Write, so a frame is never interleaved by
// the kernel with another writer's bytes (callers still serialize writes
// per connection; the protocol has exactly one writer per direction).
func writeFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("coordnet: encoding frame: %w", err)
	}
	if len(data) > maxFrame {
		return fmt.Errorf("coordnet: %d-byte frame exceeds the %d-byte limit", len(data), maxFrame)
	}
	buf := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(buf, uint32(len(data)))
	copy(buf[4:], data)
	if act := failpt.Eval(siteFrameWrite); act != nil {
		switch act.Kind {
		case failpt.KindSever:
			sever(w)
			return fmt.Errorf("coordnet: frame write severed (failpt %s)", siteFrameWrite)
		case failpt.KindTorn:
			n := act.N
			if n > len(buf) {
				n = len(buf)
			}
			_, _ = w.Write(buf[:n])
			sever(w)
			return fmt.Errorf("coordnet: frame torn after %d of %d bytes (failpt %s)", n, len(buf), siteFrameWrite)
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("coordnet: writing frame: %w", err)
	}
	return nil
}

// readFrame reads one length-delimited JSON frame into v. A clean close
// at a frame boundary returns io.EOF unwrapped, so callers can tell an
// orderly shutdown from a mid-frame transport failure.
func readFrame(r io.Reader, v any) error {
	if act := failpt.Eval(siteFrameRead); act != nil && act.Kind == failpt.KindSever {
		sever(r)
		return fmt.Errorf("coordnet: frame read severed (failpt %s)", siteFrameRead)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("coordnet: %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	// The body grows as bytes arrive rather than being allocated at the
	// header's word, so a hostile header costs no more than the bytes
	// actually sent.
	var data bytes.Buffer
	if m, err := io.CopyN(&data, r, int64(n)); err != nil {
		if m > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("coordnet: frame truncated after %d of %d bytes: %w", m, n, err)
	}
	if err := json.Unmarshal(data.Bytes(), v); err != nil {
		return fmt.Errorf("coordnet: decoding frame: %w", err)
	}
	return nil
}
