package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/campaignflags"
)

// shardedRecords runs one supervised, crash-tolerant campaign by exec'ing
// the diffprop binary in -shards mode and loading the merged checkpoint it
// writes. The supervisor partitions the fault set across restartable
// worker subprocesses (see internal/supervise); merged records are
// bit-identical to an in-process run, so the caller can rebuild the study
// by resuming from them without recomputing anything.
//
// model is the diffprop -model value ("sa", "and", "or"); total is the
// fault-set size the caller derived, cross-checked against the checkpoint
// header to catch configuration drift between this process and the
// subprocess.
func (r *Runner) shardedRecords(name, model string, total int) (map[int]json.RawMessage, error) {
	cfg := r.cfg
	if cfg.WorkerBinary == "" {
		return nil, fmt.Errorf("experiments: Shards > 0 needs WorkerBinary (the diffprop executable)")
	}
	if cfg.ShardDir == "" {
		return nil, fmt.Errorf("experiments: Shards > 0 needs ShardDir (checkpoint directory)")
	}
	if err := os.MkdirAll(cfg.ShardDir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: shard dir: %w", err)
	}
	ckpt := filepath.Join(cfg.ShardDir, fmt.Sprintf("%s-%s.jsonl", name, model))
	args := append([]string{
		"-circuit", name,
		"-model", model,
		"-shards", fmt.Sprint(cfg.Shards),
		"-checkpoint", ckpt,
		"-summary",
		"-maxbfs", fmt.Sprint(cfg.MaxBFs),
		"-theta", fmt.Sprint(cfg.Theta),
		"-seed", fmt.Sprint(cfg.Seed),
	}, campaignflags.Args(cfg.Campaign)...)
	cmd := exec.Command(cfg.WorkerBinary, args...)
	cmd.Stdout = io.Discard // the human report; the checkpoint is the output
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 2 {
		// Exit 2 is a completed campaign with per-fault errors (including
		// quarantined poison faults) — those faults carry Err records, the
		// rest are exact. The study reports them; the run is not a failure.
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: supervised %s %s campaign: %w", name, model, err)
	}
	hdr, recs, _, err := analysis.LoadCheckpoint(ckpt)
	if err != nil {
		return nil, fmt.Errorf("experiments: supervised %s %s campaign: %w", name, model, err)
	}
	if hdr.Faults != total || len(recs) != total {
		return nil, fmt.Errorf("experiments: supervised %s %s campaign: checkpoint holds %d of %d faults but this process derived %d — configuration drift between figures and %s",
			name, model, len(recs), hdr.Faults, total, cfg.WorkerBinary)
	}
	return recs, nil
}
