package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	coordnet "dpmr/internal/coord/net"
)

// noStdin stands in for an unused worker-protocol stream.
func noStdin() *strings.Reader { return strings.NewReader("") }

func runCLI(args []string, stdin *strings.Reader, stdout, stderr *bytes.Buffer) int {
	return run(context.Background(), args, stdin, stdout, stderr)
}

// TestRunFlagValidation is the table-driven flag/validation contract of
// the dpmr-exp CLI: every bad combination exits nonzero with a
// diagnostic naming the problem, without starting a campaign.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"no experiment", []string{}, 2, "Usage"},
		{"unknown experiment", []string{"-exp", "fig9.9"}, 1, "unknown experiment"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"bad shard syntax", []string{"-exp", "fig3.7", "-shard", "three"}, 2, "want i/N"},
		{"shard index past count", []string{"-exp", "fig3.7", "-shard", "3/3"}, 2, "out of range"},
		{"negative shard index", []string{"-exp", "fig3.7", "-shard", "-1/3"}, 2, "out of range"},
		{"zero shard count", []string{"-exp", "fig3.7", "-shard", "0/0"}, 2, "at least 1"},
		{"shard without exp", []string{"-shard", "0/3"}, 2, "-shard requires"},
		{"shard of all", []string{"-exp", "all", "-shard", "0/3"}, 2, "-shard requires"},
		{"out without shard", []string{"-exp", "fig3.7", "-out", "x.json"}, 2, "-out requires -shard"},
		{"merge without files", []string{"-merge"}, 2, "-merge needs"},
		{"merge with shard", []string{"-merge", "-shard", "0/2", "x.json"}, 2, "mutually exclusive"},
		{"merge missing file", []string{"-merge", "/nonexistent/p.json"}, 1, "no such file"},
		{"merge empty glob", []string{"-merge", "/nonexistent/part*.json"}, 2, "no partials match"},
		{"negative parallel", []string{"-exp", "fig3.7", "-quick", "-parallel", "-2"}, 1, "at least 1 worker"},
		{"coord without exp", []string{"-coord", "2"}, 2, "-coord requires"},
		{"coord of all", []string{"-exp", "all", "-coord", "2"}, 2, "-coord requires"},
		{"negative coord", []string{"-exp", "fig3.7", "-coord", "-1"}, 2, "at least 1 worker"},
		{"coord with shard", []string{"-exp", "fig3.7", "-coord", "2", "-shard", "0/2"}, 2, "mutually exclusive"},
		{"coord with merge", []string{"-exp", "fig3.7", "-coord", "2", "-merge", "x.json"}, 2, "mutually exclusive"},
		{"coord with worker", []string{"-exp", "fig3.7", "-coord", "2", "-worker"}, 2, "mutually exclusive"},
		{"coord shards below workers", []string{"-exp", "fig3.7", "-coord", "4", "-coord-shards", "2"}, 2, "at least as fine"},
		{"coord-shards without coord", []string{"-exp", "fig3.7", "-coord-shards", "4"}, 2, "-coord-shards requires -coord"},
		{"coord-spawn without coord", []string{"-exp", "fig3.7", "-coord-spawn"}, 2, "-coord-spawn requires -coord"},
		{"coord-lease without coord", []string{"-exp", "fig3.7", "-coord-lease", "30s"}, 2, "-coord-lease requires -coord"},
		{"negative coord lease", []string{"-exp", "fig3.7", "-coord", "2", "-coord-lease", "-5s"}, 2, "must be positive"},
		{"zero coord lease", []string{"-exp", "fig3.7", "-coord", "2", "-coord-lease", "0"}, 2, "must be positive"},
		{"chaos without spawn", []string{"-exp", "fig3.7", "-coord", "2", "-coord-chaos", "1"}, 2, "-coord-chaos requires -coord-spawn"},
		{"chaos without coord", []string{"-exp", "fig3.7", "-coord-chaos", "1"}, 2, "-coord-chaos requires -coord-spawn"},
		{"spec missing file", []string{"-spec", "/nonexistent/spec.json"}, 2, "no such file"},
		{"spec with exp", []string{"-spec", "/nonexistent/spec.json", "-exp", "fig3.7"}, 2, "mutually exclusive"},
		{"spec with quick", []string{"-spec", "/nonexistent/spec.json", "-quick"}, 2, "mutually exclusive"},
		{"spec with runs", []string{"-spec", "/nonexistent/spec.json", "-runs", "3"}, 2, "mutually exclusive"},
		{"spec with worker", []string{"-spec", "/nonexistent/spec.json", "-worker"}, 2, "mutually exclusive"},
		{"remote with coord", []string{"-exp", "fig3.7", "-remote", "127.0.0.1:9", "-coord", "2"}, 2, "mutually exclusive"},
		{"remote with shard", []string{"-exp", "fig3.7", "-remote", "127.0.0.1:9", "-shard", "0/2"}, 2, "mutually exclusive"},
		{"remote with merge", []string{"-remote", "127.0.0.1:9", "-merge", "x.json"}, 2, "mutually exclusive"},
		{"remote with worker", []string{"-remote", "127.0.0.1:9", "-worker"}, 2, "mutually exclusive"},
		{"remote of all", []string{"-exp", "all", "-remote", "127.0.0.1:9"}, 2, "-remote requires a single experiment"},
		{"remote with journal", []string{"-exp", "fig3.7", "-remote", "127.0.0.1:9", "-journal", "j"}, 2, "-journal is incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := runCLI(tc.args, noStdin(), &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("run(%v) stderr %q does not contain %q", tc.args, stderr.String(), tc.wantErr)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runCLI([]string{"-list"}, noStdin(), &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fig3.7") || !strings.Contains(stdout.String(), "tab4.6") {
		t.Errorf("-list output incomplete:\n%s", stdout.String())
	}
}

// TestShardMergeEndToEnd drives the real CLI path: two shards to files,
// merged, against the unsharded report — byte for byte. It also covers
// the -merge glob and directory forms introduced for many-shard runs.
func TestShardMergeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var unsharded, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.7", "-quick"}, noStdin(), &unsharded, &stderr); code != 0 {
		t.Fatalf("unsharded run failed: %s", stderr.String())
	}
	files := make([]string, 2)
	for i := range files {
		files[i] = filepath.Join(dir, "part"+string(rune('0'+i))+".json")
		var stdout bytes.Buffer
		stderr.Reset()
		code := runCLI([]string{"-exp", "fig3.7", "-quick", "-shard", string(rune('0'+i)) + "/2", "-out", files[i]}, noStdin(), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("shard %d failed: %s", i, stderr.String())
		}
		if fi, err := os.Stat(files[i]); err != nil || fi.Size() == 0 {
			t.Fatalf("shard %d wrote no partial: %v", i, err)
		}
	}
	var merged bytes.Buffer
	stderr.Reset()
	// Out-of-order merge, experiment id taken from the partials.
	if code := runCLI([]string{"-merge", "-quick", files[1], files[0]}, noStdin(), &merged, &stderr); code != 0 {
		t.Fatalf("merge failed: %s", stderr.String())
	}
	if !bytes.Equal(unsharded.Bytes(), merged.Bytes()) {
		t.Errorf("merged report differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded.String(), merged.String())
	}
	// The same merge via a glob pattern and via the directory, without
	// enumerating files by hand.
	for _, arg := range []string{filepath.Join(dir, "part*.json"), dir} {
		var globbed bytes.Buffer
		stderr.Reset()
		if code := runCLI([]string{"-merge", "-quick", arg}, noStdin(), &globbed, &stderr); code != 0 {
			t.Fatalf("merge %q failed: %s", arg, stderr.String())
		}
		if !bytes.Equal(unsharded.Bytes(), globbed.Bytes()) {
			t.Errorf("merge %q differs from unsharded", arg)
		}
	}
	// A directory holding no partials is named, not silently merged.
	stderr.Reset()
	if code := runCLI([]string{"-merge", "-quick", t.TempDir()}, noStdin(), &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "no *.json partials") {
		t.Errorf("empty-directory merge exited %d, stderr %q", code, stderr.String())
	}
	// Duplicated shard must be rejected (a run failure, exit 1 — the
	// command line itself was fine).
	stderr.Reset()
	if code := runCLI([]string{"-merge", "-quick", files[0], files[0]}, noStdin(), &bytes.Buffer{}, &stderr); code != 1 {
		t.Errorf("duplicate shard merge exited %d, want 1 (stderr: %s)", code, stderr.String())
	}
	// Missing shard must be rejected with the range named.
	stderr.Reset()
	if code := runCLI([]string{"-merge", "-quick", files[1]}, noStdin(), &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "missing trials") {
		t.Errorf("missing shard merge exited %d, stderr %q", code, stderr.String())
	}
}

// TestShardedOverheadEndToEnd: overhead experiments shard like
// campaigns — two shards of fig3.16 merge to the unsharded bytes.
func TestShardedOverheadEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var unsharded, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.16", "-quick"}, noStdin(), &unsharded, &stderr); code != 0 {
		t.Fatalf("unsharded run failed: %s", stderr.String())
	}
	for i := 0; i < 2; i++ {
		f := filepath.Join(dir, "ov"+string(rune('0'+i))+".json")
		stderr.Reset()
		if code := runCLI([]string{"-exp", "fig3.16", "-quick", "-shard", string(rune('0'+i)) + "/2", "-out", f}, noStdin(), &bytes.Buffer{}, &stderr); code != 0 {
			t.Fatalf("overhead shard %d failed: %s", i, stderr.String())
		}
	}
	var merged bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-merge", "-quick", dir}, noStdin(), &merged, &stderr); code != 0 {
		t.Fatalf("overhead merge failed: %s", stderr.String())
	}
	if !bytes.Equal(unsharded.Bytes(), merged.Bytes()) {
		t.Errorf("merged fig3.16 differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded.String(), merged.String())
	}
}

// TestCoordinatorEndToEnd runs the experiment under the in-process
// coordinator fleet: the merged report must be byte-identical to the
// plain unsharded run.
func TestCoordinatorEndToEnd(t *testing.T) {
	var unsharded, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.7", "-quick"}, noStdin(), &unsharded, &stderr); code != 0 {
		t.Fatalf("unsharded run failed: %s", stderr.String())
	}
	var coordinated bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-exp", "fig3.7", "-quick", "-coord", "3"}, noStdin(), &coordinated, &stderr); code != 0 {
		t.Fatalf("coordinated run failed: %s", stderr.String())
	}
	if !bytes.Equal(unsharded.Bytes(), coordinated.Bytes()) {
		t.Errorf("coordinated report differs from unsharded:\n--- unsharded ---\n%s\n--- coordinated ---\n%s",
			unsharded.String(), coordinated.String())
	}
}

// TestRemoteEndToEnd submits the experiment to an in-process dpmrd
// campaign service over a real loopback socket; the locally merged
// report must be byte-identical to the plain unsharded run.
func TestRemoteEndToEnd(t *testing.T) {
	var unsharded, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.7", "-quick"}, noStdin(), &unsharded, &stderr); code != 0 {
		t.Fatalf("unsharded run failed: %s", stderr.String())
	}

	srv := coordnet.NewServer(coordnet.ServerConfig{LocalWorkers: 2})
	ln, err := coordnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	var remote bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-exp", "fig3.7", "-quick", "-remote", ln.Addr().String()}, noStdin(), &remote, &stderr); code != 0 {
		t.Fatalf("remote run failed: %s", stderr.String())
	}
	if !bytes.Equal(unsharded.Bytes(), remote.Bytes()) {
		t.Errorf("remote report differs from unsharded:\n--- unsharded ---\n%s\n--- remote ---\n%s",
			unsharded.String(), remote.String())
	}
}

// TestSpecFileEndToEnd is the -spec round trip at the CLI surface:
// -dump-spec writes the canonical JSON of the flag-described experiment,
// and running that file back produces a byte-identical report with no
// declarative flags on the command line at all.
func TestSpecFileEndToEnd(t *testing.T) {
	var specJSON, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.16", "-quick", "-dump-spec"}, noStdin(), &specJSON, &stderr); code != 0 {
		t.Fatalf("-dump-spec failed: %s", stderr.String())
	}
	if !strings.Contains(specJSON.String(), `"kind":"experiment"`) {
		t.Fatalf("-dump-spec wrote no spec: %s", specJSON.String())
	}
	path := filepath.Join(t.TempDir(), "fig3.16.json")
	if err := os.WriteFile(path, specJSON.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var flagDriven bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-exp", "fig3.16", "-quick"}, noStdin(), &flagDriven, &stderr); code != 0 {
		t.Fatalf("flag-driven run failed: %s", stderr.String())
	}
	var specDriven bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-spec", path}, noStdin(), &specDriven, &stderr); code != 0 {
		t.Fatalf("spec-driven run failed: %s", stderr.String())
	}
	if !bytes.Equal(flagDriven.Bytes(), specDriven.Bytes()) {
		t.Errorf("-spec run differs from the flag-driven run:\n--- flags ---\n%s\n--- spec ---\n%s",
			flagDriven.String(), specDriven.String())
	}
}

// TestProgressGoesToStderr: -progress must never pollute the stdout
// report stream — stdout stays byte-identical with and without it, and
// the progress lines land on stderr.
func TestProgressGoesToStderr(t *testing.T) {
	var quiet, stderr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.16", "-quick"}, noStdin(), &quiet, &stderr); code != 0 {
		t.Fatalf("run failed: %s", stderr.String())
	}
	var noisy, progressErr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.16", "-quick", "-progress"}, noStdin(), &noisy, &progressErr); code != 0 {
		t.Fatalf("-progress run failed: %s", progressErr.String())
	}
	if !bytes.Equal(quiet.Bytes(), noisy.Bytes()) {
		t.Errorf("-progress polluted stdout:\n--- without ---\n%s\n--- with ---\n%s", quiet.String(), noisy.String())
	}
	if !strings.Contains(progressErr.String(), "trials") {
		t.Errorf("-progress wrote nothing to stderr: %q", progressErr.String())
	}
	// The same purity holds for a shard writing its partial to stdout
	// (-out -): the pipeline output must decode as pure JSON.
	var shardOut, shardErr bytes.Buffer
	if code := runCLI([]string{"-exp", "fig3.16", "-quick", "-shard", "0/2", "-out", "-", "-progress"}, noStdin(), &shardOut, &shardErr); code != 0 {
		t.Fatalf("shard -out - failed: %s", shardErr.String())
	}
	if !strings.HasPrefix(shardOut.String(), "{") || !strings.Contains(shardOut.String(), `"fingerprint"`) {
		t.Errorf("shard stdout is not a pure JSON partial: %q", shardOut.String())
	}
}

// TestWorkerModeServes speaks the JSON-lines protocol to -worker mode
// directly: the assignments carry the Spec (argv holds no experiment
// description), and each completion embeds the shard's partial.
func TestWorkerModeServes(t *testing.T) {
	spec := `{"kind":"experiment","exp":"fig3.7","quick":true}`
	stdin := strings.NewReader(
		`{"spec":` + spec + `,"shard":{"index":0,"count":2}}` + "\n" +
			`{"spec":` + spec + `,"shard":{"index":1,"count":2}}` + "\n")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-worker"}, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("worker mode exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if got := strings.Count(out, `"payload"`); got != 2 {
		t.Errorf("want 2 completions with payloads, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, `"fingerprint"`) {
		t.Errorf("worker completion carries no partial payload:\n%s", out)
	}
	if strings.Contains(out, `"error"`) {
		t.Errorf("worker reported an error:\n%s", out)
	}
	// A bad spec in an assignment is an in-band shard error, not a dead
	// worker: the process answers and stays in the loop.
	stdin = strings.NewReader(`{"spec":{"kind":"banana"},"shard":{"index":0,"count":1}}` + "\n")
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-worker"}, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("worker mode exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"error"`) {
		t.Errorf("bad spec not answered in-band:\n%s", stdout.String())
	}
}

// TestSpecKindMismatchNamed: a campaign-kind spec fed to dpmr-exp is a
// usage error naming both kinds, not a bare usage dump.
func TestSpecKindMismatchNamed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.json")
	spec := `{"kind":"campaign","workloads":["art"],"variants":[{}],"inject":"immediate-free"}` + "\n"
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spec", path},
		{"-spec", path, "-shard", "0/2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runCLI(args, noStdin(), &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), `got kind "campaign"`) {
			t.Errorf("run(%v) = %d, stderr %q; want 2 naming the kind", args, code, stderr.String())
		}
	}
}

// TestJournalFlagValidation is the dpmr-exp -journal/-resume flag
// contract: bad combinations are named exit-2 usage errors.
func TestJournalFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"resume without journal", []string{"-exp", "fig3.7", "-resume"}, "-resume requires -journal"},
		{"journal with shard", []string{"-exp", "fig3.7", "-journal", "j", "-shard", "0/2"}, "-journal is incompatible"},
		{"journal with merge", []string{"-journal", "j", "-merge", "x.json"}, "-journal is incompatible"},
		{"journal with coord", []string{"-exp", "fig3.7", "-journal", "j", "-coord", "2"}, "-journal is incompatible"},
		{"journal with worker", []string{"-journal", "j", "-worker"}, "-journal is incompatible"},
		{"journal of all", []string{"-exp", "all", "-journal", "j"}, "-journal requires a single experiment"},
		{"journal without exp", []string{"-journal", "j"}, "-journal requires a single experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runCLI(tc.args, noStdin(), &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestJournalEndToEnd: a journaled experiment — one campaign-shaped
// (fig3.7) and one overhead-shaped (fig3.16) — reproduces the direct
// report byte for byte, leaves report.txt identical to stdout, refuses
// a changed spec, and a resume of the complete journal executes nothing.
func TestJournalEndToEnd(t *testing.T) {
	for _, exp := range []string{"fig3.7", "fig3.16"} {
		t.Run(exp, func(t *testing.T) {
			base := []string{"-exp", exp, "-quick"}
			var direct, directErr bytes.Buffer
			if code := runCLI(base, noStdin(), &direct, &directErr); code != 0 {
				t.Fatalf("direct run failed: %s", directErr.String())
			}

			dir := t.TempDir()
			var journaled, jerr bytes.Buffer
			if code := runCLI(append(base, "-journal", dir), noStdin(), &journaled, &jerr); code != 0 {
				t.Fatalf("journaled run failed: %s", jerr.String())
			}
			if !bytes.Equal(direct.Bytes(), journaled.Bytes()) {
				t.Errorf("journaled report differs from direct:\n--- direct ---\n%s\n--- journaled ---\n%s",
					direct.String(), journaled.String())
			}
			report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report, journaled.Bytes()) {
				t.Errorf("final report.txt differs from stdout:\n--- report.txt ---\n%s\n--- stdout ---\n%s",
					report, journaled.String())
			}

			// The journal is bound to the spec: dropping -quick changes the
			// fingerprint and must be refused, not silently re-run.
			var stderr bytes.Buffer
			if code := runCLI([]string{"-exp", exp, "-journal", dir, "-resume"}, noStdin(), &bytes.Buffer{}, &stderr); code != 2 ||
				!strings.Contains(stderr.String(), "identical to resume") {
				t.Errorf("changed-spec resume exited %d, stderr %q", code, stderr.String())
			}

			var resumed, rerr bytes.Buffer
			if code := runCLI(append(base, "-journal", dir, "-resume"), noStdin(), &resumed, &rerr); code != 0 {
				t.Fatalf("resume of complete journal failed: %s", rerr.String())
			}
			if !bytes.Equal(direct.Bytes(), resumed.Bytes()) {
				t.Errorf("resumed report differs from direct")
			}
			if !strings.Contains(rerr.String(), "executed 0") {
				t.Errorf("resume of a complete journal re-executed trials: %q", rerr.String())
			}
		})
	}
}

// TestFleetProgressOneLinePerShard: under -progress every shard a fleet
// runs prints exactly one "merged shard" line — from the daemon's stream
// under -remote, from the fleet's results under -coord — and the
// client-side merge of the payloads adds none.
func TestFleetProgressOneLinePerShard(t *testing.T) {
	srv := coordnet.NewServer(coordnet.ServerConfig{LocalWorkers: 2})
	ln, err := coordnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	for _, mode := range [][]string{{"-remote", ln.Addr().String()}, {"-coord", "2"}} {
		var stdout, stderr bytes.Buffer
		if code := runCLI(append([]string{"-exp", "fig3.16", "-quick", "-progress"}, mode...), noStdin(), &stdout, &stderr); code != 0 {
			t.Fatalf("%v failed: %s", mode, stderr.String())
		}
		checkOneLinePerShard(t, mode[0], stderr.String())
	}
}

// checkOneLinePerShard requires the "merged shard i/N" lines in stderr
// to name every shard of the N-shard cut exactly once.
func checkOneLinePerShard(t *testing.T, mode, stderr string) {
	t.Helper()
	seen := make(map[string]int)
	count := 0
	for _, line := range strings.Split(stderr, "\n") {
		_, rest, ok := strings.Cut(line, "merged shard ")
		if !ok {
			continue
		}
		shard, _, _ := strings.Cut(rest, ":")
		_, n, _ := strings.Cut(shard, "/")
		seen[shard]++
		count, _ = strconv.Atoi(n)
	}
	if count == 0 || len(seen) != count {
		t.Fatalf("%s: want one merged-shard line for each shard, got %v:\n%s", mode, seen, stderr)
	}
	for shard, lines := range seen {
		if lines != 1 {
			t.Errorf("%s: shard %s printed %d lines, want 1:\n%s", mode, shard, lines, stderr)
		}
	}
}
