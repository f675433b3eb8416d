package coordnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/harness"
)

// frameSeeds are well-formed frames of every vocabulary, plus headers
// at and past the size limit.
func frameSeeds(f *testing.F) {
	for _, v := range []any{
		hello{Proto: ProtoVersion, Schema: SpecSchemaVersion, Role: roleWorker},
		helloReply{Proto: ProtoVersion, Schema: SpecSchemaVersion, Refusal: "no"},
		workerFrame{Assign: &coord.Assignment{Spec: harness.ExperimentSpec("fig3.7"), Shard: harness.SpanShard(2, 5)}},
		workerReply{Completion: &coord.Completion{Shard: harness.ShardSpec{Index: 1, Count: 2}, Payload: []byte(`{"lo":0}`)}},
		submitRequest{Spec: harness.ExperimentSpec("fig3.16")},
		serverFrame{Event: []byte(`{"trialDone":{"Done":1}}`)},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, n := range []uint32{maxFrame, maxFrame + 1, 1<<32 - 1, 0} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		f.Add(append(hdr[:], `{"ping":true}`...))
	}
}

// FuzzReadFrame fuzzes the frame reader every daemon, worker and client
// connection runs on untrusted bytes: any input must decode into each
// frame vocabulary or be refused — never a panic — no frame whose header
// claims more than maxFrame is ever accepted, and whatever decodes must
// encode again.
func FuzzReadFrame(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{new(hello), new(workerFrame), new(workerReply), new(submitRequest), new(serverFrame)} {
			if err := readFrame(bytes.NewReader(data), v); err != nil {
				continue
			}
			if n := binary.BigEndian.Uint32(data); n > maxFrame {
				t.Fatalf("accepted a frame whose header claims %d bytes, past the %d-byte limit", n, maxFrame)
			}
			if err := writeFrame(&bytes.Buffer{}, v); err != nil {
				t.Fatalf("a decoded %T does not encode: %v", v, err)
			}
		}
	})
}

// fuzzConn is a net.Conn over fixed input bytes that records what the
// daemon writes back; deadlines are no-ops, so a short input ends in EOF
// rather than a wait.
type fuzzConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return &net.UnixAddr{Name: "daemon", Net: "unix"} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return &net.UnixAddr{Name: "peer", Net: "unix"} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzListenerHandshake fuzzes the daemon side of the hello exchange,
// the first thing it runs on any accepted connection: arbitrary bytes
// must yield a known role or an error, never a panic. An accepted peer
// is answered with a clean reply; a refused one with at most a named
// refusal.
func FuzzListenerHandshake(f *testing.F) {
	frameSeeds(f)
	for _, h := range []hello{
		{Proto: ProtoVersion, Schema: SpecSchemaVersion, Role: roleClient},
		{Proto: ProtoVersion + 1, Schema: SpecSchemaVersion, Role: roleWorker},
		{Proto: ProtoVersion, Schema: SpecSchemaVersion, Role: "daemon"},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, h); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &fuzzConn{in: bytes.NewReader(data)}
		role, err := listenerHandshake(conn)
		var reply helloReply
		replied := conn.out.Len() > 0
		if replied {
			if rerr := readFrame(&conn.out, &reply); rerr != nil {
				t.Fatalf("the daemon wrote a malformed reply: %v", rerr)
			}
		}
		if err != nil {
			if role != "" {
				t.Fatalf("refused handshake returned role %q", role)
			}
			if replied && reply.Refusal == "" {
				t.Fatalf("refused handshake (%v) answered without naming the refusal", err)
			}
			return
		}
		if role != roleWorker && role != roleClient {
			t.Fatalf("accepted unknown role %q", role)
		}
		if !replied || reply.Refusal != "" || reply.Proto != ProtoVersion || reply.Schema != SpecSchemaVersion {
			t.Fatalf("accepted %s handshake answered with %+v", role, reply)
		}
	})
}
