package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// buildDiffprop compiles the real diffprop binary the supervised runner
// execs. Skips when the toolchain build fails (e.g. in a stripped
// environment); the in-process paths are covered elsewhere.
func buildDiffprop(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "diffprop")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diffprop").CombinedOutput(); err != nil {
		t.Skipf("building diffprop: %v\n%s", err, out)
	}
	return bin
}

func TestShardedStudiesMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("execs subprocess campaigns")
	}
	bin := buildDiffprop(t)
	base := QuickConfig()
	base.Circuits = []string{"c17"}
	base.MaxBFs = 20
	// Non-default knobs travel the figures-to-diffprop command line; a
	// flag the subprocess rejects fails the supervised campaign.
	base.Campaign = analysis.CampaignConfig{
		Recovery:  diffprop.Recovery{NodeLimit: 1 << 20},
		Calibrate: true,
	}

	inproc := NewRunner(base)

	sharded := base
	sharded.Shards = 3
	sharded.WorkerBinary = bin
	sharded.ShardDir = t.TempDir()
	sup := NewRunner(sharded)

	wantSA, err := inproc.StuckAtStudy("c17")
	if err != nil {
		t.Fatal(err)
	}
	gotSA, err := sup.StuckAtStudy("c17")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSA.Records, wantSA.Records) {
		t.Errorf("sharded stuck-at records differ from in-process:\n%s\nvs\n%s",
			mustJSON(t, gotSA.Records), mustJSON(t, wantSA.Records))
	}

	wantBF, err := inproc.BridgingStudy("c17", faults.WiredOR)
	if err != nil {
		t.Fatal(err)
	}
	gotBF, err := sup.BridgingStudy("c17", faults.WiredOR)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBF.Records, wantBF.Records) {
		t.Errorf("sharded bridging records differ from in-process:\n%s\nvs\n%s",
			mustJSON(t, gotBF.Records), mustJSON(t, wantBF.Records))
	}

	// The merged checkpoints stay in ShardDir for resumption.
	if _, err := os.Stat(filepath.Join(sharded.ShardDir, "c17-sa.jsonl")); err != nil {
		t.Errorf("merged stuck-at checkpoint missing: %v", err)
	}
}

func TestShardedConfigValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Circuits = []string{"c17"}
	cfg.Shards = 2
	r := NewRunner(cfg)
	if _, err := r.StuckAtStudy("c17"); err == nil {
		t.Fatal("Shards without WorkerBinary accepted")
	}
	cfg.WorkerBinary = "/bin/false"
	r = NewRunner(cfg)
	if _, err := r.StuckAtStudy("c17"); err == nil {
		t.Fatal("Shards without ShardDir accepted")
	}
	cfg.ShardDir = filepath.Join(os.TempDir(), fmt.Sprintf("exp-shard-val-%d", os.Getpid()))
	defer os.RemoveAll(cfg.ShardDir)
	r = NewRunner(cfg)
	if _, err := r.StuckAtStudy("c17"); err == nil {
		t.Fatal("failing worker binary accepted")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
