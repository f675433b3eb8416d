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
// the dpmr-run CLI: command-line misuse exits 2 and run failures exit 1
// (matching dpmr-exp and dpmrc), each with a diagnostic naming the
// problem.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"unknown workload", []string{"-workload", "nope"}, 2, "unknown workload"},
		{"unknown injection", []string{"-inject", "wild-write"}, 2, "unknown injection"},
		{"campaign without inject", []string{"-campaign"}, 2, "-campaign requires -inject"},
		{"campaign with dsa", []string{"-campaign", "-inject", "immediate-free", "-dsa"}, 2, "does not support"},
		{"campaign with seed", []string{"-campaign", "-inject", "immediate-free", "-seed", "3"}, 2, "only applies to single runs"},
		{"campaign with site", []string{"-campaign", "-inject", "immediate-free", "-site", "1"}, 2, "only applies to single runs"},
		{"shard without campaign", []string{"-shard", "0/2"}, 2, "-shard requires -campaign"},
		{"merge without campaign", []string{"-merge"}, 2, "-merge requires -campaign"},
		{"coord without campaign", []string{"-coord", "2"}, 2, "-coord requires -campaign"},
		{"worker with campaign", []string{"-worker", "-campaign", "-inject", "immediate-free"}, 2, "mutually exclusive"},
		{"worker with spec", []string{"-worker", "-spec", "/nonexistent/c.json"}, 2, "mutually exclusive"},
		{"spec without campaign", []string{"-spec", "/nonexistent/c.json"}, 2, "-spec and -dump-spec require -campaign"},
		{"dump-spec without campaign", []string{"-dump-spec"}, 2, "-spec and -dump-spec require -campaign"},
		{"spec missing file", []string{"-campaign", "-spec", "/nonexistent/c.json"}, 2, "no such file"},
		{"spec with inject flag", []string{"-campaign", "-spec", "/nonexistent/c.json", "-inject", "immediate-free"}, 2, "mutually exclusive"},
		{"out without shard", []string{"-campaign", "-inject", "immediate-free", "-out", "x.json"}, 2, "-out requires -shard"},
		{"merge with shard", []string{"-campaign", "-inject", "immediate-free", "-merge", "-shard", "0/2", "x.json"}, 2, "mutually exclusive"},
		{"coord with shard", []string{"-campaign", "-inject", "immediate-free", "-coord", "2", "-shard", "0/2"}, 2, "mutually exclusive"},
		{"coord with worker", []string{"-campaign", "-inject", "immediate-free", "-coord", "2", "-worker"}, 2, "mutually exclusive"},
		{"zero coord lease", []string{"-campaign", "-inject", "immediate-free", "-coord", "2", "-coord-lease", "0s"}, 2, "must be positive"},
		{"negative coord", []string{"-campaign", "-inject", "immediate-free", "-coord", "-2"}, 2, "at least 1 worker"},
		{"coord shards below workers", []string{"-campaign", "-inject", "immediate-free", "-coord", "4", "-coord-shards", "2"}, 2, "at least as fine"},
		{"coord-shards without coord", []string{"-campaign", "-inject", "immediate-free", "-coord-shards", "4"}, 2, "-coord-shards requires -coord"},
		{"coord-spawn without coord", []string{"-campaign", "-inject", "immediate-free", "-coord-spawn"}, 2, "-coord-spawn requires -coord"},
		{"coord-lease without coord", []string{"-campaign", "-inject", "immediate-free", "-coord-lease", "30s"}, 2, "-coord-lease requires -coord"},
		{"chaos without spawn", []string{"-campaign", "-inject", "immediate-free", "-coord", "2", "-coord-chaos", "1"}, 2, "-coord-chaos requires -coord-spawn"},
		{"merge without files", []string{"-campaign", "-inject", "immediate-free", "-merge"}, 2, "-merge needs"},
		{"bad shard", []string{"-campaign", "-inject", "immediate-free", "-shard", "9"}, 2, "want i/N"},
		{"shard out of range", []string{"-campaign", "-inject", "immediate-free", "-shard", "5/5"}, 2, "out of range"},
		{"remote without campaign", []string{"-remote", "127.0.0.1:9"}, 2, "-remote requires -campaign"},
		{"remote with coord", []string{"-campaign", "-inject", "immediate-free", "-remote", "127.0.0.1:9", "-coord", "2"}, 2, "mutually exclusive"},
		{"remote with shard", []string{"-campaign", "-inject", "immediate-free", "-remote", "127.0.0.1:9", "-shard", "0/2"}, 2, "mutually exclusive"},
		{"remote with merge", []string{"-campaign", "-inject", "immediate-free", "-remote", "127.0.0.1:9", "-merge", "x.json"}, 2, "mutually exclusive"},
		{"remote with worker", []string{"-worker", "-remote", "127.0.0.1:9"}, 2, "mutually exclusive"},
		{"remote with journal", []string{"-campaign", "-inject", "immediate-free", "-remote", "127.0.0.1:9", "-journal", "j"}, 2, "-journal is incompatible with -remote"},
		{"concurrent without campaign", []string{"-workload", "chash"}, 2, "use -campaign"},
		{"concurrent with sites", []string{"-workload", "cpipe", "-campaign", "-sites"}, 2, "applies to sequential workloads"},
		{"concurrent with inject", []string{"-workload", "chash", "-campaign", "-inject", "immediate-free"}, 2, "does not apply to concurrent campaigns"},
		{"concurrent with dsa", []string{"-workload", "chash", "-campaign", "-dsa"}, 2, "does not support"},
		{"threads without campaign", []string{"-workload", "mcf", "-threads", "4"}, 2, "-threads requires a concurrent -campaign"},
		{"sched-seed without campaign", []string{"-workload", "mcf", "-sched-seed", "4"}, 2, "-sched-seed requires a concurrent -campaign"},
		{"threads on injection campaign", []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-threads", "4"}, 2, "only applies to concurrent campaigns"},
		{"sched-seed on injection campaign", []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-sched-seed", "9"}, 2, "only applies to concurrent campaigns"},
		{"zero workers", []string{"-campaign", "-inject", "immediate-free", "-parallel", "0"}, 1, "at least 1 worker"},
		{"negative workers", []string{"-campaign", "-inject", "immediate-free", "-parallel", "-4"}, 1, "at least 1 worker"},
		{"worker with zero workers", []string{"-worker", "-parallel", "0"}, 1, "at least 1 worker"},
		{"worker with negative workers", []string{"-worker", "-parallel", "-1"}, 1, "at least 1 worker"},
		{"bad cpuprofile path", []string{"-workload", "mcf", "-cpuprofile", "/no/such/dir/cpu.out"}, 1, "prof:"},
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

// trimExecutionLocal drops the summary lines that legitimately differ
// between execution strategies (worker/shard counts, module statistics).
func trimExecutionLocal(s string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "modules:") || strings.HasPrefix(l, "campaign:") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// TestCampaignShardMergeEndToEnd shards one workload's campaign across
// two partial files and merges them; the summary must match a direct
// single-process campaign line for line (minus the execution-local
// module statistics).
func TestCampaignShardMergeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var direct, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &stderr); code != 0 {
		t.Fatalf("direct campaign failed: %s", stderr.String())
	}
	files := []string{filepath.Join(dir, "p0.json"), filepath.Join(dir, "p1.json")}
	for i, f := range files {
		stderr.Reset()
		args := append(append([]string{}, base...), "-shard", string(rune('0'+i))+"/2", "-out", f)
		if code := runCLI(args, noStdin(), &bytes.Buffer{}, &stderr); code != 0 {
			t.Fatalf("shard %d failed: %s", i, stderr.String())
		}
	}
	var merged bytes.Buffer
	stderr.Reset()
	args := append(append([]string{}, base...), "-merge", files[1], files[0])
	if code := runCLI(args, noStdin(), &merged, &stderr); code != 0 {
		t.Fatalf("merge failed: %s", stderr.String())
	}
	if trimExecutionLocal(direct.String()) != trimExecutionLocal(merged.String()) {
		t.Errorf("merged summary differs from direct:\n--- direct ---\n%s\n--- merged ---\n%s",
			direct.String(), merged.String())
	}
	// A stale partial merged against different -runs is a different plan.
	stderr.Reset()
	args = []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "2", "-merge", files[0], files[1]}
	if code := runCLI(args, noStdin(), &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "fingerprint") {
		t.Errorf("foreign-plan merge exited %d, stderr %q", code, stderr.String())
	}
}

// TestCampaignCoordinatorEndToEnd runs the same campaign directly and
// under the in-process coordinator fleet; the coverage summary must
// match line for line (minus execution-local lines).
func TestCampaignCoordinatorEndToEnd(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var direct, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &stderr); code != 0 {
		t.Fatalf("direct campaign failed: %s", stderr.String())
	}
	var coordinated bytes.Buffer
	stderr.Reset()
	args := append(append([]string{}, base...), "-coord", "2", "-coord-shards", "3")
	if code := runCLI(args, noStdin(), &coordinated, &stderr); code != 0 {
		t.Fatalf("coordinated campaign failed: %s", stderr.String())
	}
	if trimExecutionLocal(direct.String()) != trimExecutionLocal(coordinated.String()) {
		t.Errorf("coordinated summary differs from direct:\n--- direct ---\n%s\n--- coordinated ---\n%s",
			direct.String(), coordinated.String())
	}
	if !strings.Contains(coordinated.String(), "3 shards via 2 workers") {
		t.Errorf("coordinated summary does not name the fleet:\n%s", coordinated.String())
	}
}

// TestCampaignRemoteEndToEnd submits the campaign to an in-process
// dpmrd service over a loopback socket; the locally merged summary must
// match the direct run line for line (minus execution-local lines), and
// name the daemon as the execution strategy.
func TestCampaignRemoteEndToEnd(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var direct, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &stderr); code != 0 {
		t.Fatalf("direct campaign failed: %s", stderr.String())
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
	args := append(append([]string{}, base...), "-remote", ln.Addr().String())
	if code := runCLI(args, noStdin(), &remote, &stderr); code != 0 {
		t.Fatalf("remote campaign failed: %s", stderr.String())
	}
	if trimExecutionLocal(direct.String()) != trimExecutionLocal(remote.String()) {
		t.Errorf("remote summary differs from direct:\n--- direct ---\n%s\n--- remote ---\n%s",
			direct.String(), remote.String())
	}
	if !strings.Contains(remote.String(), "shards via dpmrd") {
		t.Errorf("remote summary does not name the daemon:\n%s", remote.String())
	}
}

// TestCampaignWorkerModeServes speaks the JSON-lines protocol to -worker
// mode directly: each assignment carries the campaign Spec (argv holds
// no experiment description), and the completions embed the campaign
// partials, module cache warm across them.
func TestCampaignWorkerModeServes(t *testing.T) {
	spec := `{"kind":"campaign","workloads":["art"],"variants":[{}],"inject":"immediate-free","runs":1}`
	stdin := strings.NewReader(
		`{"spec":` + spec + `,"shard":{"index":0,"count":2}}` + "\n" +
			`{"spec":` + spec + `,"shard":{"index":1,"count":2}}` + "\n")
	var stdout, stderr bytes.Buffer
	args := []string{"-worker"}
	if code := runCLI(args, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("worker mode exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if got := strings.Count(out, `"payload"`); got != 2 {
		t.Errorf("want 2 completions with payloads, got %d:\n%s", got, out)
	}
	if strings.Contains(out, `"error"`) {
		t.Errorf("worker reported an error:\n%s", out)
	}
}

// TestOpStatsOutputIdentical asserts a single run on the tree-walking
// reference interpreter (-opstats profiles the walker) prints the
// byte-identical report of the default compiled execution.
func TestOpStatsOutputIdentical(t *testing.T) {
	runWith := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-workload", "mcf", "-dpmr"}, extra...)
		if code := runCLI(args, noStdin(), &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d (stderr: %s)", args, code, stderr.String())
		}
		return stdout.String()
	}
	compiled := runWith()
	reference := runWith("-opstats", filepath.Join(t.TempDir(), "ops.json"))
	if compiled != reference {
		t.Errorf("compiled and reference single-run outputs differ:\n%s\nvs\n%s", compiled, reference)
	}
}

// TestCampaignSpecFileEndToEnd: -dump-spec writes the campaign's
// canonical JSON, and -spec runs it back with no declarative flags —
// summary identical to the flag-driven campaign.
func TestCampaignSpecFileEndToEnd(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var specJSON, stderr bytes.Buffer
	if code := runCLI(append(append([]string{}, base...), "-dump-spec"), noStdin(), &specJSON, &stderr); code != 0 {
		t.Fatalf("-dump-spec failed: %s", stderr.String())
	}
	if !strings.Contains(specJSON.String(), `"kind":"campaign"`) {
		t.Fatalf("-dump-spec wrote no campaign spec: %s", specJSON.String())
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, specJSON.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var flagDriven bytes.Buffer
	stderr.Reset()
	if code := runCLI(base, noStdin(), &flagDriven, &stderr); code != 0 {
		t.Fatalf("flag-driven campaign failed: %s", stderr.String())
	}
	var specDriven bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-campaign", "-spec", path}, noStdin(), &specDriven, &stderr); code != 0 {
		t.Fatalf("spec-driven campaign failed: %s", stderr.String())
	}
	if flagDriven.String() != specDriven.String() {
		t.Errorf("-spec campaign differs from flag-driven:\n--- flags ---\n%s\n--- spec ---\n%s",
			flagDriven.String(), specDriven.String())
	}
	// An experiment spec is dpmr-exp's business, named as such.
	expPath := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(expPath, []byte(`{"kind":"experiment","exp":"fig3.7"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := runCLI([]string{"-campaign", "-spec", expPath}, noStdin(), &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "dpmr-exp") {
		t.Errorf("experiment spec exited %d, stderr %q", code, stderr.String())
	}
}

// TestCampaignProgressGoesToStderr: -progress must never pollute the
// stdout summary or a shard partial written to stdout.
func TestCampaignProgressGoesToStderr(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var quiet, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &quiet, &stderr); code != 0 {
		t.Fatalf("campaign failed: %s", stderr.String())
	}
	var noisy, progressErr bytes.Buffer
	if code := runCLI(append(append([]string{}, base...), "-progress"), noStdin(), &noisy, &progressErr); code != 0 {
		t.Fatalf("-progress campaign failed: %s", progressErr.String())
	}
	if quiet.String() != noisy.String() {
		t.Errorf("-progress polluted stdout:\n--- without ---\n%s\n--- with ---\n%s", quiet.String(), noisy.String())
	}
	if !strings.Contains(progressErr.String(), "trials") {
		t.Errorf("-progress wrote nothing to stderr: %q", progressErr.String())
	}
	// A shard partial on stdout (-out -) stays pure JSON under -progress.
	var shardOut, shardErr bytes.Buffer
	args := append(append([]string{}, base...), "-shard", "0/2", "-out", "-", "-progress")
	if code := runCLI(args, noStdin(), &shardOut, &shardErr); code != 0 {
		t.Fatalf("shard -out - failed: %s", shardErr.String())
	}
	if !strings.HasPrefix(shardOut.String(), "{") || !strings.Contains(shardOut.String(), `"fingerprint"`) {
		t.Errorf("shard stdout is not a pure JSON partial: %q", shardOut.String())
	}
}

// TestConcurrentCampaignEndToEnd drives the scheduler-driven concurrent
// kind through the CLI's execution strategies: the direct summary names
// the scheduler configuration and the ConsistViol column, and sharded
// -merge, the in-process -coord fleet, and a -spec round trip all print
// the identical report.
func TestConcurrentCampaignEndToEnd(t *testing.T) {
	base := []string{"-workload", "chash", "-campaign", "-runs", "2", "-threads", "2", "-sched-seed", "7"}
	var direct, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &stderr); code != 0 {
		t.Fatalf("direct concurrent campaign failed: %s", stderr.String())
	}
	if !strings.Contains(direct.String(), "concurrent campaign: 2 threads, schedule seed 7") {
		t.Fatalf("summary does not name the scheduler configuration:\n%s", direct.String())
	}
	if !strings.Contains(direct.String(), "ConsistViol") {
		t.Fatalf("summary lacks the ConsistViol column:\n%s", direct.String())
	}

	dir := t.TempDir()
	files := []string{filepath.Join(dir, "p0.json"), filepath.Join(dir, "p1.json")}
	for i, f := range files {
		stderr.Reset()
		args := append(append([]string{}, base...), "-shard", string(rune('0'+i))+"/2", "-out", f)
		if code := runCLI(args, noStdin(), &bytes.Buffer{}, &stderr); code != 0 {
			t.Fatalf("shard %d failed: %s", i, stderr.String())
		}
	}
	var merged bytes.Buffer
	stderr.Reset()
	if code := runCLI(append(append([]string{}, base...), "-merge", files[1], files[0]), noStdin(), &merged, &stderr); code != 0 {
		t.Fatalf("merge failed: %s", stderr.String())
	}
	if trimExecutionLocal(direct.String()) != trimExecutionLocal(merged.String()) {
		t.Errorf("merged summary differs from direct:\n--- direct ---\n%s\n--- merged ---\n%s",
			direct.String(), merged.String())
	}

	var coordinated bytes.Buffer
	stderr.Reset()
	if code := runCLI(append(append([]string{}, base...), "-coord", "2"), noStdin(), &coordinated, &stderr); code != 0 {
		t.Fatalf("coordinated concurrent campaign failed: %s", stderr.String())
	}
	if trimExecutionLocal(direct.String()) != trimExecutionLocal(coordinated.String()) {
		t.Errorf("coordinated summary differs from direct:\n--- direct ---\n%s\n--- coordinated ---\n%s",
			direct.String(), coordinated.String())
	}

	var specJSON bytes.Buffer
	stderr.Reset()
	if code := runCLI(append(append([]string{}, base...), "-dump-spec"), noStdin(), &specJSON, &stderr); code != 0 {
		t.Fatalf("-dump-spec failed: %s", stderr.String())
	}
	if !strings.Contains(specJSON.String(), `"kind":"concurrent"`) {
		t.Fatalf("-dump-spec wrote no concurrent spec: %s", specJSON.String())
	}
	path := filepath.Join(dir, "concurrent.json")
	if err := os.WriteFile(path, specJSON.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var specDriven bytes.Buffer
	stderr.Reset()
	if code := runCLI([]string{"-campaign", "-spec", path}, noStdin(), &specDriven, &stderr); code != 0 {
		t.Fatalf("spec-driven concurrent campaign failed: %s", stderr.String())
	}
	if direct.String() != specDriven.String() {
		t.Errorf("-spec campaign differs from flag-driven:\n--- flags ---\n%s\n--- spec ---\n%s",
			direct.String(), specDriven.String())
	}
}

// TestConcurrentJournalEndToEnd: a journaled concurrent campaign prints
// the direct summary, leaves a report.txt byte-identical to its stdout,
// and resuming the completed journal executes nothing.
func TestConcurrentJournalEndToEnd(t *testing.T) {
	base := []string{"-workload", "cpipe", "-campaign", "-runs", "2", "-threads", "2"}
	var direct, stderr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &stderr); code != 0 {
		t.Fatalf("direct concurrent campaign failed: %s", stderr.String())
	}

	dir := t.TempDir()
	var journaled, jerr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir), noStdin(), &journaled, &jerr); code != 0 {
		t.Fatalf("journaled concurrent campaign failed: %s", jerr.String())
	}
	if trimExecutionLocal(journaled.String()) != trimExecutionLocal(direct.String()) {
		t.Errorf("journaled summary differs from direct:\n--- direct ---\n%s\n--- journaled ---\n%s",
			direct.String(), journaled.String())
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(report) != journaled.String() {
		t.Errorf("final report.txt differs from the journaled stdout:\n--- report.txt ---\n%s\n--- stdout ---\n%s",
			report, journaled.String())
	}

	var resumed, rerr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir, "-resume"), noStdin(), &resumed, &rerr); code != 0 {
		t.Fatalf("resume of complete journal failed: %s", rerr.String())
	}
	if resumed.String() != journaled.String() {
		t.Errorf("resumed summary differs from the original journaled run:\n--- original ---\n%s\n--- resumed ---\n%s",
			journaled.String(), resumed.String())
	}
	if !strings.Contains(rerr.String(), "executed 0") {
		t.Errorf("resume of a complete journal re-executed trials: %q", rerr.String())
	}
}

// TestJournalFlagValidation is the -journal/-resume flag contract:
// every bad combination is a named exit-2 usage error, before any
// journal directory is touched.
func TestJournalFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"resume without journal", []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-resume"}, 2, "-resume requires -journal"},
		{"journal without campaign", []string{"-workload", "art", "-journal", "j"}, 2, "-journal and -resume require -campaign"},
		{"resume without campaign", []string{"-workload", "art", "-resume"}, 2, "-journal and -resume require -campaign"},
		{"journal with shard", []string{"-campaign", "-inject", "immediate-free", "-journal", "j", "-shard", "0/2"}, 2, "-journal is incompatible"},
		{"journal with merge", []string{"-campaign", "-inject", "immediate-free", "-journal", "j", "-merge"}, 2, "-journal is incompatible"},
		{"journal with worker", []string{"-worker", "-journal", "j"}, 2, "-journal and -worker are mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := runCLI(tc.args, noStdin(), &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q does not name the problem %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestJournalOpenRefusals: journal directory states that cannot be
// safely continued — an existing journal without -resume, nothing to
// resume, a changed spec, a corrupted file — are exit-2 refusals that
// name the condition rather than silently re-running or dropping trials.
func TestJournalOpenRefusals(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir), noStdin(), &stdout, &stderr); code != 0 {
		t.Fatalf("journaled campaign failed: %s", stderr.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "campaign.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	corruptDir := t.TempDir()
	corrupt := append([]byte(nil), data...)
	corrupt[0] ^= 0x20
	if err := os.WriteFile(filepath.Join(corruptDir, "campaign.jnl"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"existing journal without -resume", append(base, "-journal", dir), "pass -resume"},
		{"resume with nothing to resume", append(base, "-journal", t.TempDir(), "-resume"), "nothing to resume"},
		{"resume under a changed spec", []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "2", "-journal", dir, "-resume"}, "identical to resume"},
		{"resume of a corrupt journal", append(base, "-journal", corruptDir, "-resume"), "corrupt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runCLI(tc.args, noStdin(), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q does not name the condition %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestCampaignJournalEndToEnd: a journaled campaign prints the same
// summary as a direct run (modulo the execution line), leaves a
// report.txt byte-identical to its stdout, and resuming the completed
// journal replays everything, executes nothing, and prints the same
// summary again.
func TestCampaignJournalEndToEnd(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var direct, directErr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &directErr); code != 0 {
		t.Fatalf("direct campaign failed: %s", directErr.String())
	}

	dir := t.TempDir()
	var journaled, jerr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir), noStdin(), &journaled, &jerr); code != 0 {
		t.Fatalf("journaled campaign failed: %s", jerr.String())
	}
	if trimExecutionLocal(journaled.String()) != trimExecutionLocal(direct.String()) {
		t.Errorf("journaled summary differs from direct:\n--- direct ---\n%s\n--- journaled ---\n%s",
			direct.String(), journaled.String())
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(report) != journaled.String() {
		t.Errorf("final report.txt differs from the journaled stdout:\n--- report.txt ---\n%s\n--- stdout ---\n%s",
			report, journaled.String())
	}

	var resumed, rerr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir, "-resume"), noStdin(), &resumed, &rerr); code != 0 {
		t.Fatalf("resume of complete journal failed: %s", rerr.String())
	}
	if resumed.String() != journaled.String() {
		t.Errorf("resumed summary differs from the original journaled run:\n--- original ---\n%s\n--- resumed ---\n%s",
			journaled.String(), resumed.String())
	}
	if !strings.Contains(rerr.String(), "executed 0") {
		t.Errorf("resume of a complete journal re-executed trials: %q", rerr.String())
	}
}

// TestCampaignJournalCoordinatedEndToEnd: -journal under -coord leases
// the journal's gap spans to the fleet, journals each shard as it lands,
// and prints the direct campaign's summary; a follow-up plain -resume
// finds the journal complete.
func TestCampaignJournalCoordinatedEndToEnd(t *testing.T) {
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1"}
	var direct, directErr bytes.Buffer
	if code := runCLI(base, noStdin(), &direct, &directErr); code != 0 {
		t.Fatalf("direct campaign failed: %s", directErr.String())
	}

	dir := t.TempDir()
	var coordOut, coordErr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir, "-coord", "2"), noStdin(), &coordOut, &coordErr); code != 0 {
		t.Fatalf("coordinated journaled campaign failed: %s", coordErr.String())
	}
	if trimExecutionLocal(coordOut.String()) != trimExecutionLocal(direct.String()) {
		t.Errorf("coordinated journaled summary differs from direct:\n--- direct ---\n%s\n--- coordinated ---\n%s",
			direct.String(), coordOut.String())
	}
	if !strings.Contains(coordErr.String(), "via 2 workers") {
		t.Errorf("stderr does not report the fleet: %q", coordErr.String())
	}

	var resumed, rerr bytes.Buffer
	if code := runCLI(append(base, "-journal", dir, "-resume"), noStdin(), &resumed, &rerr); code != 0 {
		t.Fatalf("resume after coordinated run failed: %s", rerr.String())
	}
	if !strings.Contains(rerr.String(), "executed 0") {
		t.Errorf("coordinated run left gaps in the journal: %q", rerr.String())
	}
	if trimExecutionLocal(resumed.String()) != trimExecutionLocal(direct.String()) {
		t.Errorf("post-coordination resume summary differs from direct")
	}
}

// TestCampaignMergeDirectoryAndGlob: -merge takes a directory of
// partials and a glob of them, and both merge to the bytes of the
// file-list merge.
func TestCampaignMergeDirectoryAndGlob(t *testing.T) {
	base := []string{"-workload", "chash", "-campaign", "-runs", "2", "-threads", "2"}
	dir := t.TempDir()
	var files []string
	var stderr bytes.Buffer
	for i := 0; i < 2; i++ {
		f := filepath.Join(dir, "conc"+string(rune('0'+i))+".json")
		files = append(files, f)
		if code := runCLI(append(append([]string{}, base...), "-shard", string(rune('0'+i))+"/2", "-out", f), noStdin(), &bytes.Buffer{}, &stderr); code != 0 {
			t.Fatalf("shard %d failed: %s", i, stderr.String())
		}
	}
	merge := func(args ...string) string {
		var out, stderr bytes.Buffer
		if code := runCLI(append(append(append([]string{}, base...), "-merge"), args...), noStdin(), &out, &stderr); code != 0 {
			t.Fatalf("-merge %v failed: %s", args, stderr.String())
		}
		return out.String()
	}
	listed := merge(files...)
	for _, arg := range []string{dir, filepath.Join(dir, "conc[01].json")} {
		if got := merge(arg); got != listed {
			t.Errorf("-merge %s differs from the file-list merge:\n--- files ---\n%s\n--- %s ---\n%s", arg, listed, arg, got)
		}
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
	base := []string{"-workload", "art", "-campaign", "-inject", "immediate-free", "-runs", "1", "-progress"}
	for _, mode := range [][]string{{"-remote", ln.Addr().String()}, {"-coord", "2"}} {
		var stdout, stderr bytes.Buffer
		if code := runCLI(append(append([]string{}, base...), mode...), noStdin(), &stdout, &stderr); code != 0 {
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
