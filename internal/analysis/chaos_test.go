package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// chaosFixture builds the shared stuck-at campaign inputs for the chaos
// tests: the c95s circuit and its collapsed checkpoint fault set.
func chaosFixture(t *testing.T) (*netlist.Circuit, []faults.StuckAt) {
	t.Helper()
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	if len(fs) < 8 {
		t.Fatalf("fixture too small: %d faults", len(fs))
	}
	return c, fs
}

// chaosCase is one campaign the storm tests run: the c95s stuck-at
// fixture and a c95s wired-AND set go through the same runner, so both
// must come out of the same storms the same way.
type chaosCase struct {
	name   string
	faults int
	run    func(t *testing.T, cfg CampaignConfig) (records any, stats CampaignStats, degraded []DegradedFault)
}

func chaosCases(t *testing.T) []chaosCase {
	t.Helper()
	c, fs := chaosFixture(t)
	set, pop, sampled := BridgingSet(c.Decompose2(), faults.WiredAND, 200, 0.3, 1990)
	return []chaosCase{
		{"stuckat", len(fs), func(t *testing.T, cfg CampaignConfig) (any, CampaignStats, []DegradedFault) {
			t.Helper()
			s, err := RunStuckAtCampaign(c, nil, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s.Records, s.Stats, s.DegradedFaults()
		}},
		{"bridging", len(set), func(t *testing.T, cfg CampaignConfig) (any, CampaignStats, []DegradedFault) {
			t.Helper()
			s, err := RunBridgingCampaign(c, nil, set, faults.WiredAND, pop, sampled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s.Records, s.Stats, s.DegradedFaults()
		}},
	}
}

// TestChaosRescuedRecordsBitIdentical injects a storm of forced budget
// aborts into half the faults of a campaign whose recovery ladder has a
// retry rung, and demands the storm run's records be bit-identical to an
// uninjected run: every injected abort is one-shot (first attempt only),
// so the relaxed retry completes exactly and the rescue leaves no trace in
// the results.
func TestChaosRescuedRecordsBitIdentical(t *testing.T) {
	for _, tc := range chaosCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			base := CampaignConfig{
				Workers:  3,
				FaultOps: 50_000_000,
				Recovery: diffprop.Recovery{RetryMultiplier: 8},
			}
			clean, _, _ := tc.run(t, base)
			storm := base
			storm.Chaos = &chaos.Config{Seed: 7, Rules: []chaos.Rule{
				{Point: chaos.PointBudget, Prob: 0.5},
				{Point: chaos.PointNodeLimit, Prob: 0.2},
			}}
			stormed, stats, _ := tc.run(t, storm)
			t.Logf("%d faults: %d injected, %d rescued, %d degraded", tc.faults, stats.ChaosInjected, stats.Rescued, stats.Degraded)
			if stats.ChaosInjected == 0 {
				t.Fatal("storm run injected nothing")
			}
			if stats.Rescued == 0 {
				t.Fatal("storm run rescued nothing; injected aborts never reached the retry rung")
			}
			if stats.Degraded != 0 {
				t.Fatalf("storm run degraded %d faults; every injected abort should be rescued", stats.Degraded)
			}
			if !reflect.DeepEqual(stormed, clean) {
				t.Fatal("rescued records are not bit-identical to the clean run")
			}
		})
	}
}

// TestChaosDegradationDeterministic is the estimator-degradation
// determinism check: with AtOp=1 aborts (the only schedule-independent
// choice) and no retry rung, the set of degraded faults and their estimate
// records must be identical across worker counts and across reruns with
// the same chaos seed.
func TestChaosDegradationDeterministic(t *testing.T) {
	for _, tc := range chaosCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func(workers int) CampaignConfig {
				return CampaignConfig{
					Workers: workers,
					Chaos: &chaos.Config{Seed: 42, Rules: []chaos.Rule{
						{Point: chaos.PointBudget, Prob: 0.3, AtOp: 1},
					}},
				}
			}
			serial, stats, serialDeg := tc.run(t, cfg(1))
			t.Logf("%d of %d faults degraded", stats.Degraded, tc.faults)
			if stats.Degraded == 0 {
				t.Fatal("no fault degraded; the storm never fired")
			}
			if stats.Degraded == tc.faults {
				t.Fatal("every fault degraded; storm too dense to test determinism")
			}
			parallel, _, parallelDeg := tc.run(t, cfg(4))
			rerun, _, rerunDeg := tc.run(t, cfg(4))
			if !reflect.DeepEqual(parallel, serial) {
				t.Fatal("records differ between 1 and 4 workers under the same chaos seed")
			}
			if !reflect.DeepEqual(rerun, parallel) {
				t.Fatal("records differ between reruns with the same chaos seed")
			}
			if !reflect.DeepEqual(parallelDeg, serialDeg) {
				t.Fatal("DegradedFaults differ between 1 and 4 workers")
			}
			if !reflect.DeepEqual(rerunDeg, parallelDeg) {
				t.Fatal("DegradedFaults differ between reruns")
			}
		})
	}
}

// TestChaosPanicIsolation injects worker panics at scripted fault indices
// and checks the blast radius: exactly those faults carry error records
// with a stable message, every other record matches a clean run, and the
// campaign itself completes without error. Run with -race this also
// exercises the shared-table view under mid-analysis panics.
func TestChaosPanicIsolation(t *testing.T) {
	c, fs := chaosFixture(t)
	clean, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	victims := []int{2, 5, len(fs) - 1}
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers: 3,
		Chaos: &chaos.Config{Seed: 1, Rules: []chaos.Rule{
			{Point: chaos.PointPanic, Indices: victims},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Errored != len(victims) {
		t.Fatalf("Errored = %d, want %d", study.Stats.Errored, len(victims))
	}
	isVictim := map[int]bool{}
	for _, i := range victims {
		isVictim[i] = true
		want := fmt.Sprintf("injected worker panic: chaos: injected failure (fault %d)", i)
		if got := study.Records[i].Err; got != want {
			t.Fatalf("record %d Err = %q, want %q", i, got, want)
		}
	}
	for i, r := range study.Records {
		if isVictim[i] {
			continue
		}
		if !reflect.DeepEqual(r, clean.Records[i]) {
			t.Fatalf("record %d differs from the clean run; panic at another fault leaked into it", i)
		}
	}
}

// TestChaosCheckpointENOSPC injects a checkpoint write failure and checks
// the clean-abort contract: the campaign returns the typed
// *CheckpointError (wrapping ENOSPC and the chaos sentinel), the
// checkpointer is poisoned against further appends, and the file keeps a
// valid prefix whose records match the clean run exactly.
func TestChaosCheckpointENOSPC(t *testing.T) {
	c, fs := chaosFixture(t)
	clean, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	work := c.Decompose2()
	hdr := StuckAtCheckpointHeader(work, fs)
	path := filepath.Join(t.TempDir(), "enospc.jsonl")
	cp, err := CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	const failAt = 3 // fail the 4th append (0-based evaluation sequence)
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:    1,
		Checkpoint: cp,
		Chaos: &chaos.Config{Seed: 9, Rules: []chaos.Rule{
			{Point: chaos.PointCheckpointWrite, Indices: []int{failAt}},
		}},
	})
	if err == nil {
		t.Fatal("campaign did not surface the injected checkpoint failure")
	}
	var cerr *CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("campaign error %v is not a *CheckpointError", err)
	}
	if cerr.Op != "append" {
		t.Fatalf("CheckpointError.Op = %q, want \"append\"", cerr.Op)
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error %v does not wrap ENOSPC and the chaos sentinel", err)
	}
	if cp.Err() == nil {
		t.Fatal("checkpointer not poisoned after the injected failure")
	}
	if aerr := cp.Append(0, clean.Records[0]); !errors.Is(aerr, syscall.ENOSPC) {
		t.Fatalf("poisoned Append returned %v, want the original failure", aerr)
	}
	if err := cp.Close(); err != nil {
		t.Fatalf("Close of poisoned checkpointer: %v", err)
	}
	// The campaign aborted but still returned a partial index-aligned study.
	skipped := 0
	for _, r := range study.Records {
		if r.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("aborted campaign has no skipped records; the abort was not prompt")
	}
	// The file keeps the valid prefix: exactly the appends before the
	// failure, each bit-identical to the clean run's record.
	_, persisted, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != failAt {
		t.Fatalf("checkpoint holds %d records, want %d (appends before the failure)", len(persisted), failAt)
	}
	restored := make([]StuckAtRecord, len(fs))
	skip, err := resumeDecode(len(fs), persisted, func(i int, raw json.RawMessage) error {
		return json.Unmarshal(raw, &restored[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range skip {
		if ok && !reflect.DeepEqual(restored[i], clean.Records[i]) {
			t.Fatalf("persisted record %d differs from the clean run", i)
		}
	}
}

// TestChaosTornTailResumeBitIdentical injects a torn checkpoint write — a
// partial line reaches the disk before the failure, exactly as a crash
// mid-append would leave it — then resumes from the file and demands the
// completed study be bit-identical to an uninterrupted run, with every
// fault persisted exactly once.
func TestChaosTornTailResumeBitIdentical(t *testing.T) {
	c, fs := chaosFixture(t)
	clean, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	work := c.Decompose2()
	hdr := StuckAtCheckpointHeader(work, fs)
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	cp, err := CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	const failAt = 4
	_, err = RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:    1,
		Checkpoint: cp,
		Chaos: &chaos.Config{Seed: 11, Rules: []chaos.Rule{
			{Point: chaos.PointCheckpointWrite, Indices: []int{failAt}, Bytes: 10},
		}},
	})
	var cerr *CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("campaign error %v is not a *CheckpointError", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Resume truncates the torn tail and restores the valid prefix.
	cp2, resume, err := ResumeCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) != failAt {
		t.Fatalf("resume restored %d records, want %d", len(resume), failAt)
	}
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:    2,
		Checkpoint: cp2,
		Resume:     resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if study.Stats.Resumed != failAt {
		t.Fatalf("Resumed = %d, want %d", study.Stats.Resumed, failAt)
	}
	if !reflect.DeepEqual(study.Records, clean.Records) {
		t.Fatal("resumed study is not bit-identical to the uninterrupted run")
	}
	_, persisted, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != len(fs) {
		t.Fatalf("final checkpoint holds %d records, want %d (no lost or duplicated faults)", len(persisted), len(fs))
	}
}
