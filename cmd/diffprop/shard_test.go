package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/supervise"
)

// diffpropBin is the real diffprop binary the integration tests exec —
// both directly and, through -shards, as a self-re-executing supervisor.
// Empty when the build failed (tests skip).
var diffpropBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "diffprop-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "diffprop")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "shard_test: building diffprop: %v\n%s", err, out)
	} else {
		diffpropBin = bin
	}
	os.Exit(m.Run())
}

// runDiffprop execs the binary and returns stdout, stderr and exit code.
func runDiffprop(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	if diffpropBin == "" {
		t.Skip("diffprop binary unavailable (go build failed in TestMain)")
	}
	cmd := exec.Command(diffpropBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), code
}

// checkpointRecords loads a checkpoint's record lines keyed by fault
// index, raw bytes preserved for bit-identity comparison.
func checkpointRecords(t *testing.T, path string) map[int]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := make(map[int]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	first := true
	for sc.Scan() {
		if first {
			first = false // header
			continue
		}
		var line struct {
			Index  int             `json:"i"`
			Record json.RawMessage `json:"r"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v: %s", path, err, sc.Bytes())
		}
		recs[line.Index] = string(line.Record)
	}
	return recs
}

// identicalExcept asserts got == want record-for-record, byte-for-byte,
// for every index not in skip.
func identicalExcept(t *testing.T, got, want map[int]string, skip map[int]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record counts differ: %d vs %d", len(got), len(want))
	}
	for i, w := range want {
		if skip[i] {
			continue
		}
		if got[i] != w {
			t.Errorf("record %d differs:\n  supervised:   %s\n  unsupervised: %s", i, got[i], w)
		}
	}
}

// singleProcessRun produces the unsupervised reference checkpoint once
// per test that needs it.
func singleProcessRun(t *testing.T) map[int]string {
	t.Helper()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "single.jsonl")
	_, stderr, code := runDiffprop(t, "-circuit", "c17", "-checkpoint", ckpt, "-summary")
	if code != 0 {
		t.Fatalf("single-process run exited %d:\n%s", code, stderr)
	}
	return checkpointRecords(t, ckpt)
}

func TestSupervisedBitIdenticalToSingleProcess(t *testing.T) {
	want := singleProcessRun(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sharded.jsonl")
	stdout, stderr, code := runDiffprop(t, "-circuit", "c17", "-shards", "3", "-checkpoint", ckpt, "-summary")
	if code != 0 {
		t.Fatalf("supervised run exited %d:\n%s", code, stderr)
	}
	identicalExcept(t, checkpointRecords(t, ckpt), want, nil)
	if !strings.Contains(stdout, "faults: 18") {
		t.Errorf("supervised summary missing fault count:\n%s", stdout)
	}
	// The merged checkpoint must resume cleanly in an ordinary
	// unsupervised run: nothing left to analyze.
	_, stderr, code = runDiffprop(t, "-circuit", "c17", "-checkpoint", ckpt, "-resume", "-summary")
	if code != 0 || !strings.Contains(stderr, "18 of 18 faults already analyzed") {
		t.Fatalf("merged checkpoint did not resume cleanly (exit %d):\n%s", code, stderr)
	}

	// Under -max the supervisor warns once for the whole campaign; its
	// workers slice the same prefix silently.
	ckpt = filepath.Join(dir, "truncated.jsonl")
	_, stderr, code = runDiffprop(t, "-circuit", "c17", "-shards", "3", "-max", "12", "-checkpoint", ckpt, "-summary")
	if code != 0 {
		t.Fatalf("truncated supervised run exited %d:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "-max truncates the fault set"); n != 1 {
		t.Errorf("-max warning printed %d times, want once:\n%s", n, stderr)
	}
	prefix := make(map[int]string)
	for i := 0; i < 12; i++ {
		prefix[i] = want[i]
	}
	identicalExcept(t, checkpointRecords(t, ckpt), prefix, nil)

	// The bridging models take the same sharded path: stdout and the
	// merged records match the in-process run.
	for _, model := range []string{"and", "or"} {
		run := func(extra ...string) (string, map[int]string) {
			t.Helper()
			ckpt := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", model, len(extra)))
			args := append([]string{"-circuit", "c17", "-model", model, "-summary", "-checkpoint", ckpt}, extra...)
			stdout, stderr, code := runDiffprop(t, args...)
			if code != 0 {
				t.Fatalf("%v exited %d:\n%s", args, code, stderr)
			}
			return stdout, checkpointRecords(t, ckpt)
		}
		wantOut, wantRecs := run()
		gotOut, gotRecs := run("-shards", "3", "-shard-dir", filepath.Join(dir, model+"-shards"))
		if gotOut != wantOut {
			t.Errorf("-model %s: stdout differs:\n%s\nwant\n%s", model, gotOut, wantOut)
		}
		identicalExcept(t, gotRecs, wantRecs, nil)
	}
}

// degradedList returns the "blew the per-fault budget" block of a run's
// stderr: the header line and the indented fault lines under it.
func degradedList(stderr string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(stderr, "\n") {
		switch {
		case strings.Contains(line, "blew the per-fault budget"):
			in = true
		case in && !strings.HasPrefix(line, "  "):
			return b.String()
		}
		if in {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestDegradedFaultsListedFromRecords: the degraded-fault list on stderr
// is read off the records, so a sharded run, whose final study replays
// the merged checkpoint, and a resume of a finished checkpoint list the
// same faults as the in-process run.
func TestDegradedFaultsListedFromRecords(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-circuit", "c95s", "-workers", "1", "-budget", "1", "-summary"}
	run := func(extra ...string) (string, string) {
		t.Helper()
		stdout, stderr, code := runDiffprop(t, append(append([]string(nil), base...), extra...)...)
		if code != 0 {
			t.Fatalf("%v exited %d:\n%s", extra, code, stderr)
		}
		return stdout, stderr
	}
	ckpt := filepath.Join(dir, "single.jsonl")
	wantOut, stderr := run("-checkpoint", ckpt)
	want := degradedList(stderr)
	if !strings.Contains(want, "204 fault(s) blew the per-fault budget") {
		t.Fatalf("in-process run's degraded list:\n%s", stderr)
	}
	for name, extra := range map[string][]string{
		"shards": {"-shards", "2", "-checkpoint", filepath.Join(dir, "sharded.jsonl"), "-shard-dir", filepath.Join(dir, "shards")},
		"resume": {"-checkpoint", ckpt, "-resume"},
	} {
		stdout, stderr := run(extra...)
		if stdout != wantOut {
			t.Errorf("%s: stdout differs from the in-process run", name)
		}
		if got := degradedList(stderr); got != want {
			t.Errorf("%s: degraded list\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestSubSecondHeartbeatTimeoutKillsNoHealthyWorker: workers heartbeat
// at min(1s, -hb-timeout/4), so a sub-second stall timeout must not kill
// workers that are busy analyzing. Each c499s shard runs well past the
// timeout.
func TestSubSecondHeartbeatTimeoutKillsNoHealthyWorker(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "hb.jsonl")
	stdout, stderr, code := runDiffprop(t, "-circuit", "c499s", "-workers", "1", "-shards", "2",
		"-hb-timeout", "500ms", "-checkpoint", ckpt, "-summary")
	if code != 0 {
		t.Fatalf("supervised run exited %d:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "worker death(s)") {
		t.Fatalf("healthy workers were stall-killed under -hb-timeout 500ms:\n%s", stderr)
	}
	if !strings.Contains(stdout, "faults: 786") {
		t.Errorf("summary missing the full fault count:\n%s", stdout)
	}
}

// TestWorkerArgsDependOnlyOnAttempt: a relaunch runs the campaign its
// first launch ran; the command lines of attempts 0 and 3 of one lease
// differ only in -worker-attempt, and both forward the fault selection.
func TestWorkerArgsDependOnlyOnAttempt(t *testing.T) {
	s := &supervisorMode{
		hbTimeout: 300 * time.Millisecond,
		flags: workerFlagSet{
			circuit: "c1908s", model: "stuckat", stride: 10, max: 60, maxBFs: 1000, theta: 0.3, seed: 1990,
			campaign: analysis.CampaignConfig{
				Workers:  2,
				FaultOps: 100000,
				Recovery: diffprop.Recovery{NodeLimit: 40000, RetryMultiplier: 16},
			},
			chaosSpec: "workerkill:i=42,rep=1",
		},
	}
	sh := supervise.Shard{Lo: 20, Hi: 40, Path: "shard.jsonl"}
	first := s.workerArgs(sh)
	sh.Attempt = 3
	again := s.workerArgs(sh)
	if len(first) != len(again) {
		t.Fatalf("argument counts differ:\n  %q\n  %q", first, again)
	}
	for i := range first {
		if first[i] == again[i] {
			continue
		}
		if i == 0 || first[i-1] != "-worker-attempt" || first[i] != "0" || again[i] != "3" {
			t.Errorf("argument %d differs: %q vs %q", i, first[i], again[i])
		}
	}
	for _, want := range []string{"-stride 10", "-max 60"} {
		if !strings.Contains(strings.Join(first, " "), want) {
			t.Errorf("worker command line does not forward %s: %q", want, first)
		}
	}
}

// TestStrideShardedMatchesInProcess: a strided campaign under -shards
// writes a merged checkpoint byte-identical to the in-process run's, and
// its header fingerprints the strided list, not the prefix of the same
// length.
func TestStrideShardedMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	sharded := filepath.Join(dir, "sharded.jsonl")
	base := []string{"-circuit", "c1908s", "-stride", "10", "-workers", "1", "-summary"}
	stdoutSingle, stderr, code := runDiffprop(t, append(base, "-checkpoint", single)...)
	if code != 0 {
		t.Fatalf("in-process run exited %d:\n%s", code, stderr)
	}
	stdoutSharded, stderr, code := runDiffprop(t, append(base, "-shards", "2", "-checkpoint", sharded, "-shard-dir", filepath.Join(dir, "shards"))...)
	if code != 0 {
		t.Fatalf("sharded run exited %d:\n%s", code, stderr)
	}
	if stdoutSharded != stdoutSingle {
		t.Errorf("stdout differs:\n%s\nwant\n%s", stdoutSharded, stdoutSingle)
	}
	a, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("merged checkpoint differs from the in-process checkpoint")
	}

	w := circuits.MustGet("c1908s").Decompose2()
	all := faults.CheckpointStuckAts(w)
	strided, _ := selectFaults(all, 10, 0)
	want := analysis.StuckAtCheckpointHeader(w, strided)
	var got analysis.CheckpointHeader
	if err := json.Unmarshal(a[:bytes.IndexByte(a, '\n')], &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checkpoint header %+v, want %+v", got, want)
	}
	if prefix := analysis.StuckAtCheckpointHeader(w, all[:len(strided)]); got.Fingerprint == prefix.Fingerprint {
		t.Fatal("the strided list and the prefix of its length share a fingerprint")
	}
}

func TestSelectFaults(t *testing.T) {
	fs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, tc := range []struct {
		stride, max int
		want        []int
		cut         int
	}{
		{1, 0, fs, 0},
		{0, 4, []int{0, 1, 2, 3}, 6},
		{3, 0, []int{0, 3, 6, 9}, 0},
		{3, 2, []int{0, 3}, 2},
		{4, 5, []int{0, 4, 8}, 0},
		{20, 0, []int{0}, 0},
	} {
		got, cut := selectFaults(fs, tc.stride, tc.max)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || cut != tc.cut {
			t.Errorf("selectFaults(stride %d, max %d) = %v, cut %d; want %v, cut %d", tc.stride, tc.max, got, cut, tc.want, tc.cut)
		}
	}
}

func TestKillStormStaysBitIdentical(t *testing.T) {
	want := singleProcessRun(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "storm.jsonl")
	// Every worker dies at some fault on its first attempt (one-shot
	// points are attempt-gated, so restarts converge).
	_, stderr, code := runDiffprop(t,
		"-circuit", "c17", "-shards", "3", "-checkpoint", ckpt,
		"-chaos", "seed=7;workerkill:p=0.5", "-summary")
	if code != 0 {
		t.Fatalf("kill-storm run exited %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "worker death(s)") {
		t.Fatalf("kill storm killed nobody; chaos wiring broken:\n%s", stderr)
	}
	identicalExcept(t, checkpointRecords(t, ckpt), want, nil)
}

func TestPoisonFaultQuarantined(t *testing.T) {
	want := singleProcessRun(t)
	const poison = 7
	run := func(dir string) (map[int]string, string) {
		ckpt := filepath.Join(dir, "poison.jsonl")
		_, stderr, code := runDiffprop(t,
			"-circuit", "c17", "-shards", "3", "-checkpoint", ckpt,
			"-chaos", fmt.Sprintf("workerkill:i=%d,rep=1", poison),
			"-max-restarts", "1", "-summary")
		// Exit 2: campaign completed, with per-fault errors — the
		// quarantined record. Never exit 1 (a failed campaign).
		if code != 2 {
			t.Fatalf("poison run exited %d, want 2:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "quarantined") {
			t.Fatalf("no quarantine reported:\n%s", stderr)
		}
		return checkpointRecords(t, ckpt), stderr
	}
	got, _ := run(t.TempDir())
	identicalExcept(t, got, want, map[int]bool{poison: true})
	var rec struct {
		Err string
	}
	if err := json.Unmarshal([]byte(got[poison]), &rec); err != nil || !strings.Contains(rec.Err, "quarantined") {
		t.Fatalf("poison record = %s (%v), want quarantine Err", got[poison], err)
	}
	// Quarantine must be reproducible: a rerun isolates the same fault
	// with the bit-identical record.
	again, _ := run(t.TempDir())
	identicalExcept(t, again, got, nil)
}

func TestWorkerExitsOrphanedOnStdinEOF(t *testing.T) {
	if diffpropBin == "" {
		t.Skip("diffprop binary unavailable")
	}
	dir := t.TempDir()
	cmd := exec.Command(diffpropBin,
		"-circuit", "c17", "-worker-shard", "0-6",
		"-checkpoint", filepath.Join(dir, "w.jsonl"))
	cmd.Stdin = nil // stdin at EOF from the start: instantly orphaned
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 4 {
		t.Fatalf("orphaned worker exited %v, want exit 4; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "supervisor is gone") {
		t.Fatalf("orphan exit not explained:\n%s", stderr.String())
	}
}

func TestSupervisorFlagValidation(t *testing.T) {
	_, stderr, code := runDiffprop(t, "-circuit", "c17", "-shards", "2")
	if code != 1 || !strings.Contains(stderr, "-checkpoint") {
		t.Fatalf("-shards without -checkpoint: exit %d, stderr:\n%s", code, stderr)
	}
	_, stderr, code = runDiffprop(t, "-circuit", "c17", "-shards", "2", "-worker-shard", "0-3", "-checkpoint", "x.jsonl")
	if code != 1 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("-shards with -worker-shard: exit %d, stderr:\n%s", code, stderr)
	}
	_, stderr, code = runDiffprop(t, "-circuit", "c17", "-shards", "1", "-hb-timeout", "3ns", "-checkpoint", filepath.Join(t.TempDir(), "x.jsonl"))
	if code != 1 || !strings.Contains(stderr, "-hb-timeout 3ns is below 1ms") {
		t.Fatalf("-hb-timeout 3ns: exit %d, stderr:\n%s", code, stderr)
	}
}
