package analysis

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
)

// TestKillAndResumeStuckAt simulates a crash after k persisted records —
// cancelling the campaign mid-run and appending torn garbage to the
// checkpoint, as an interrupted write would — then resumes and demands a
// study bit-identical to an uninterrupted run.
func TestKillAndResumeStuckAt(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	fs := faults.CheckpointStuckAts(work)
	hdr := StuckAtCheckpointHeader(work, fs)
	path := filepath.Join(t.TempDir(), "sa.jsonl")

	uninterrupted, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: run with a checkpoint, cancel once k faults finished.
	cp, err := CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	k := len(fs) / 3
	ctx, cancel := context.WithCancel(context.Background())
	partial, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:    3,
		Context:    ctx,
		Checkpoint: cp,
		Progress: func(done, total int) {
			if done >= k {
				cancel()
			}
		},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Stats.Canceled {
		t.Fatal("cancelled campaign did not set Canceled")
	}
	skipped := 0
	for _, r := range partial.Records {
		if r.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancelled campaign has no skipped records; cancel came too late to test resume")
	}

	// Simulate the crash tearing the final append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":9999,"r":{"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: resume and finish.
	cp2, resume, err := ResumeCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) == 0 {
		t.Fatal("resume restored no records")
	}
	if _, torn := resume[9999]; torn {
		t.Fatal("torn tail line was restored")
	}
	resumed, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:    3,
		Checkpoint: cp2,
		Resume:     resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.Resumed != len(resume) {
		t.Fatalf("Stats.Resumed = %d, want %d", resumed.Stats.Resumed, len(resume))
	}
	if !reflect.DeepEqual(stripStatsSA(resumed), stripStatsSA(uninterrupted)) {
		t.Fatal("resumed study differs from uninterrupted run")
	}

	// The finished checkpoint alone must reconstruct every record.
	_, all, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(fs) {
		t.Fatalf("finished checkpoint holds %d records, want %d", len(all), len(fs))
	}
}

// TestKillAndResumeBridging is the bridging-model counterpart.
func TestKillAndResumeBridging(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	bs, pop, sampled := BridgingSet(work, faults.WiredOR, 150, 0.3, 7)
	hdr := BridgingCheckpointHeader(work, bs)
	path := filepath.Join(t.TempDir(), "bf.jsonl")

	uninterrupted, err := RunBridgingCampaign(c, nil, bs, faults.WiredOR, pop, sampled, CampaignConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	cp, err := CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	k := len(bs) / 3
	if _, err := RunBridgingCampaign(c, nil, bs, faults.WiredOR, pop, sampled, CampaignConfig{
		Workers:    3,
		Context:    ctx,
		Checkpoint: cp,
		Progress: func(done, total int) {
			if done >= k {
				cancel()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, resume, err := ResumeCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunBridgingCampaign(c, nil, bs, faults.WiredOR, pop, sampled, CampaignConfig{
		Workers:    3,
		Checkpoint: cp2,
		Resume:     resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsBF(resumed), stripStatsBF(uninterrupted)) {
		t.Fatal("resumed bridging study differs from uninterrupted run")
	}
}

// TestResumeRefusesMismatch pins the versioning satellite: resume against
// a different fault set, circuit, model or schema version must fail with a
// clear error instead of mixing incompatible records.
func TestResumeRefusesMismatch(t *testing.T) {
	c := circuits.MustGet("c95s").Decompose2()
	fs := faults.CheckpointStuckAts(c)
	hdr := StuckAtCheckpointHeader(c, fs)
	path := filepath.Join(t.TempDir(), "sa.jsonl")
	cp, err := CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(0, StuckAtRecord{Fault: fs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]CheckpointHeader{
		"different fault subset": StuckAtCheckpointHeader(c, fs[:len(fs)-1]),
		"different circuit":      StuckAtCheckpointHeader(circuits.MustGet("c17").Decompose2(), fs),
		"different model":        BridgingCheckpointHeader(c, nil),
		"different version": func() CheckpointHeader {
			h := hdr
			h.Version = CheckpointVersion + 1
			return h
		}(),
		"same size, different faults": func() CheckpointHeader {
			mut := append([]faults.StuckAt(nil), fs...)
			mut[0].Stuck = !mut[0].Stuck
			return StuckAtCheckpointHeader(c, mut)
		}(),
	}
	for name, want := range cases {
		if _, _, err := ResumeCheckpoint(path, want); err == nil {
			t.Errorf("%s: resume accepted a mismatched checkpoint", name)
		}
	}

	// The matching header still resumes.
	cp2, resume, err := ResumeCheckpoint(path, hdr)
	if err != nil {
		t.Fatalf("matching header refused: %v", err)
	}
	if len(resume) != 1 {
		t.Fatalf("restored %d records, want 1", len(resume))
	}
	cp2.Close()
}

// TestResumeOutOfRangeIndex ensures a checkpoint record pointing past the
// fault set is rejected before any analysis starts.
func TestResumeOutOfRangeIndex(t *testing.T) {
	c := circuits.MustGet("c17")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	resume := map[int]json.RawMessage{len(fs) + 5: json.RawMessage(`{}`)}
	if _, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Resume: resume}); err == nil {
		t.Fatal("out-of-range resume index was accepted")
	}
}

// TestAllResumedSkipsSynthesis pins the replay of a finished checkpoint
// (a -shards supervisor's final study, a -resume of a finished run): every
// record comes back unchanged and no engine is built, so no BDD node is
// ever allocated.
func TestAllResumedSkipsSynthesis(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	dir := t.TempDir()
	finished := func(path string, hdr CheckpointHeader, run func(cp *Checkpointer) error) map[int]json.RawMessage {
		t.Helper()
		cp, err := CreateCheckpoint(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(cp); err != nil {
			t.Fatal(err)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		_, all, _, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return all
	}

	fs := faults.CheckpointStuckAts(work)
	var full StuckAtStudy
	all := finished(filepath.Join(dir, "sa.jsonl"), StuckAtCheckpointHeader(work, fs), func(cp *Checkpointer) (err error) {
		full, err = RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 2, Checkpoint: cp})
		return err
	})
	replay, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 2, Resume: all})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsSA(replay), stripStatsSA(full)) {
		t.Fatal("all-resumed stuck-at study differs from the run that wrote the checkpoint")
	}
	if replay.Stats.PeakNodes != 0 || replay.Stats.Resumed != len(fs) || replay.Stats.Faults != 0 {
		t.Fatalf("all-resumed stuck-at stats %v: want no nodes, %d resumed, no faults analyzed", replay.Stats, len(fs))
	}

	bs, pop, sampled := BridgingSet(work, faults.WiredAND, 150, 0.3, 7)
	var fullBF BridgingStudy
	allBF := finished(filepath.Join(dir, "bf.jsonl"), BridgingCheckpointHeader(work, bs), func(cp *Checkpointer) (err error) {
		fullBF, err = RunBridgingCampaign(c, nil, bs, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 2, Checkpoint: cp})
		return err
	})
	replayBF, err := RunBridgingCampaign(c, nil, bs, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 2, Resume: allBF})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsBF(replayBF), stripStatsBF(fullBF)) {
		t.Fatal("all-resumed bridging study differs from the run that wrote the checkpoint")
	}
	if replayBF.Stats.PeakNodes != 0 || replayBF.Stats.Resumed != len(bs) {
		t.Fatalf("all-resumed bridging stats %v: want no nodes, %d resumed", replayBF.Stats, len(bs))
	}
}
