package postmortem_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/postmortem"
)

// TestFlightDumpRoundTrip runs a campaign under scripted chaos with the
// flight recorder on, writes the dump, re-reads it through the analyzer,
// and demands the report reconcile exactly: same fault count, every
// chaos injection present and correlated, every report section rendered.
func TestFlightDumpRoundTrip(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	o := &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	study, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{
		Workers:  4,
		Obs:      o,
		FaultOps: 50_000_000,
		Recovery: diffprop.Recovery{RetryMultiplier: 8},
		Chaos: &chaos.Config{Seed: 7, Rules: []chaos.Rule{
			{Point: chaos.PointBudget, Indices: []int{2, 5}, AtOp: 3},
			{Point: chaos.PointLatency, Indices: []int{7}, Latency: 0},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.ChaosInjected != 3 {
		t.Fatalf("ChaosInjected = %d, want the 3 scripted injections", study.Stats.ChaosInjected)
	}

	path := filepath.Join(t.TempDir(), "run.flight.json")
	if ok, err := o.WriteFlightDump(path, "test", "completed"); err != nil || !ok {
		t.Fatalf("WriteFlightDump = (%v, %v)", ok, err)
	}
	dump, err := obs.ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	faultEvents := 0
	for _, ev := range dump.Events {
		if ev.Kind == "fault" {
			faultEvents++
		}
	}
	if faultEvents != study.Stats.Faults {
		t.Fatalf("dump carries %d fault events, campaign analyzed %d", faultEvents, study.Stats.Faults)
	}

	rep, err := postmortem.Analyze([]*obs.FlightDump{dump}, postmortem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsAnalyzed != study.Stats.Faults || rep.DuplicateFaults != 0 {
		t.Fatalf("report counts %d faults (%d dup), campaign analyzed %d",
			rep.FaultsAnalyzed, rep.DuplicateFaults, study.Stats.Faults)
	}
	if rep.ChaosInjected != 3 || rep.ChaosUncorrelated != 0 {
		t.Fatalf("chaos audit = %d injected / %d uncorrelated, want 3/0",
			rep.ChaosInjected, rep.ChaosUncorrelated)
	}
	total := 0
	for _, n := range rep.Outcomes {
		total += n
	}
	if total != study.Stats.Faults {
		t.Fatalf("outcome breakdown sums to %d, want %d", total, study.Stats.Faults)
	}
	for _, section := range []string{
		"## Run overview", "## Outcomes", "## Fault latency", "## Throughput",
		"## Worker utilization", "## Rescue ladder", "most expensive faults",
		"## Checkpoint I/O", "## Scheduling", "## Chaos audit", "## Anomalies",
	} {
		if !strings.Contains(rep.Markdown, section) {
			t.Errorf("report is missing section %q", section)
		}
	}
	if !strings.Contains(rep.Markdown, "| stuckat ") {
		t.Error("scheduling section does not report the campaign's gate walk")
	}
}

// TestSchedulingSectionAndAnomaly feeds synthetic campaign heartbeats to
// the analyzer: each campaign's cone-walk footprint renders as one row of
// the scheduling table, and a walk that skipped almost nothing is
// reported as it is, not flagged as an anomaly.
func TestSchedulingSectionAndAnomaly(t *testing.T) {
	d := &obs.FlightDump{
		Program: "test", Reason: "completed",
		Campaigns: []obs.CampaignSnapshot{
			{Name: "healthy", GatesVisited: 400, GatesSkipped: 600},
			{Name: "dense", GatesVisited: 1000, GatesSkipped: 3},
		},
	}
	rep, err := postmortem.Analyze([]*obs.FlightDump{d}, postmortem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"| healthy | 400 | 600 | 60.0% |", "| dense | 1000 | 3 | 0.3% |"} {
		if !strings.Contains(rep.Markdown, row) {
			t.Fatalf("scheduling table missing row %q:\n%s", row, rep.Markdown)
		}
	}
	if len(rep.Anomalies) != 0 {
		t.Fatalf("gate walks raised anomalies %v, want none", rep.Anomalies)
	}
}

// TestSupervisionSectionAndQuarantineAnomaly replays a supervised
// campaign's event trail — spawns, a stall death, an OOM death, a
// bisection and a poison-fault quarantine — and demands the Supervision
// section render the lease history and the anomalies flag the poison
// fault, and nothing else.
func TestSupervisionSectionAndQuarantineAnomaly(t *testing.T) {
	fl := obs.NewFlightRecorder(0)
	fl.Record(obs.FlightSpawn, obs.FlightLabelNone, 0, 0, 9, 0)
	fl.Record(obs.FlightSpawn, obs.FlightLabelNone, 1, 9, 9, 0)
	fl.Record(obs.FlightWorkerDeath, obs.FlightLabelStall, 0, 0, -1, 3)
	fl.Record(obs.FlightRestart, obs.FlightLabelNone, 0, 0, 1, 50_000)
	fl.Record(obs.FlightWorkerDeath, obs.FlightLabelOOM, 0, 0, -1, 3)
	fl.Record(obs.FlightRestart, obs.FlightLabelNone, 0, 0, 2, 100_000)
	fl.Record(obs.FlightWorkerDeath, obs.FlightLabelExit, 0, 0, 2, 3)
	fl.Record(obs.FlightBisect, obs.FlightLabelNone, 0, 0, 9, 4)
	fl.Record(obs.FlightQuarantine, obs.FlightLabelNone, 0, 7, 4, 0)
	d := &obs.FlightDump{Program: "test", Reason: "completed", Events: fl.Snapshot()}

	rep, err := postmortem.Analyze([]*obs.FlightDump{d}, postmortem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkerDeaths != 3 || rep.Restarts != 2 {
		t.Fatalf("supervision digest = %d deaths / %d restarts, want 3/2", rep.WorkerDeaths, rep.Restarts)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 7 {
		t.Fatalf("Quarantined = %v, want [7]", rep.Quarantined)
	}
	for _, want := range []string{
		"## Supervision",
		"worker deaths: 3",
		"lease re-dispatches: 2\n",
		"| 0 | 0 | stall | - | 3 |",
		"| 0 | 0 | oom | - | 3 |",
		"| 0 | 0 | exit | 2 | 3 |",
		"bisected at global index 4",
		"**Quarantined:** fault #7",
	} {
		if !strings.Contains(rep.Markdown, want) {
			t.Errorf("supervision section missing %q:\n%s", want, rep.Markdown)
		}
	}
	if len(rep.Anomalies) != 1 || !strings.Contains(rep.Anomalies[0], "poison fault: #7") {
		t.Fatalf("anomalies = %v, want only the poison-fault flag", rep.Anomalies)
	}

	// A plain single-process dump renders the section's off state.
	rep2, err := postmortem.Analyze([]*obs.FlightDump{{Program: "t", Reason: "completed"}}, postmortem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.Markdown, "No supervision events recorded") {
		t.Fatal("single-process report should render the supervision off state")
	}
}

// TestKillAndResumeReconstruction kills a checkpointed campaign a third
// of the way in, resumes it, and feeds both flight dumps to the analyzer:
// the union of per-run fault events must cover the fault set exactly once
// — no lost and no duplicated events — and every chaos injection from
// both runs must correlate.
func TestKillAndResumeReconstruction(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	fs := faults.CheckpointStuckAts(work)
	hdr := analysis.StuckAtCheckpointHeader(work, fs)
	path := filepath.Join(t.TempDir(), "run.jsonl")

	// Run 1: canceled at roughly a third of the fault set.
	cp, err := analysis.CreateCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	o1 := &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	ctx, cancel := context.WithCancel(context.Background())
	study1, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{
		Workers:    2,
		Context:    ctx,
		Checkpoint: cp,
		Obs:        o1,
		Chaos: &chaos.Config{Seed: 3, Rules: []chaos.Rule{
			{Point: chaos.PointLatency, Indices: []int{1}, Latency: 0},
		}},
		Progress: func(done, total int) {
			if done >= total/3 {
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
	if !study1.Stats.Canceled || study1.Stats.Faults == len(fs) {
		t.Fatalf("run 1 should be partial: canceled=%v analyzed=%d/%d",
			study1.Stats.Canceled, study1.Stats.Faults, len(fs))
	}
	dump1path := filepath.Join(t.TempDir(), "run1.flight.json")
	if ok, err := o1.WriteFlightDump(dump1path, "test", "interrupt"); err != nil || !ok {
		t.Fatalf("dump 1: (%v, %v)", ok, err)
	}

	// Run 2: resume from the checkpoint and finish.
	cp2, resume, err := analysis.ResumeCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	o2 := &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	lastIdx := len(fs) - 1
	study2, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{
		Workers:    2,
		Checkpoint: cp2,
		Resume:     resume,
		Obs:        o2,
		Chaos: &chaos.Config{Seed: 3, Rules: []chaos.Rule{
			{Point: chaos.PointLatency, Indices: []int{lastIdx}, Latency: 0},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if study2.Stats.Resumed != study1.Stats.Faults {
		t.Fatalf("run 2 resumed %d, run 1 persisted %d", study2.Stats.Resumed, study1.Stats.Faults)
	}
	dump2path := filepath.Join(t.TempDir(), "run2.flight.json")
	if ok, err := o2.WriteFlightDump(dump2path, "test", "completed"); err != nil || !ok {
		t.Fatalf("dump 2: (%v, %v)", ok, err)
	}

	d1, err := obs.ReadFlightDump(dump1path)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := obs.ReadFlightDump(dump2path)
	if err != nil {
		t.Fatal(err)
	}
	_, records, _, err := analysis.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := postmortem.Analyze([]*obs.FlightDump{d1, d2}, postmortem.Options{
		Checkpoint: &postmortem.CheckpointInfo{
			Kind: hdr.Kind, Circuit: hdr.Circuit, Faults: hdr.Faults, Records: len(records),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsDropped != 0 {
		t.Fatalf("flight rings wrapped: %d events dropped", rep.EventsDropped)
	}
	if rep.DuplicateFaults != 0 {
		t.Fatalf("%d fault indices analyzed by both runs, want disjoint coverage", rep.DuplicateFaults)
	}
	if rep.FaultsAnalyzed != len(fs) {
		t.Fatalf("reconstructed history covers %d faults, want the full set of %d",
			rep.FaultsAnalyzed, len(fs))
	}
	if rep.ChaosInjected != 2 || rep.ChaosUncorrelated != 0 {
		t.Fatalf("chaos audit = %d injected / %d uncorrelated, want one correlated injection per run",
			rep.ChaosInjected, rep.ChaosUncorrelated)
	}
	for _, a := range rep.Anomalies {
		if strings.Contains(a, "resume overlap") || strings.Contains(a, "ring wrapped") {
			t.Fatalf("unexpected anomaly: %s", a)
		}
	}
}
