package analysis

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count ignored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("auto worker count must be positive")
	}
}

// stripStats zeroes the scheduling-dependent fields so studies can be
// compared with reflect.DeepEqual: Stats describes how the work ran, not
// what was computed.
func stripStatsSA(s StuckAtStudy) StuckAtStudy {
	s.Stats = CampaignStats{}
	return s
}

func stripStatsBF(s BridgingStudy) BridgingStudy {
	s.Stats = CampaignStats{}
	return s
}

func TestParallelStuckAtMatchesSerial(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	serial := RunStuckAt(e, fs)
	for _, workers := range []int{1, 3, 8} {
		par, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.Faults != len(fs) {
			t.Fatalf("workers=%d: stats report %d faults, want %d", workers, par.Stats.Faults, len(fs))
		}
		if par.Stats.GateEvaluations <= 0 || par.Stats.PeakNodes <= 0 {
			t.Fatalf("workers=%d: empty stats %+v", workers, par.Stats)
		}
		if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(serial)) {
			t.Fatalf("workers=%d: parallel study differs from serial", workers)
		}
	}
}

func TestParallelBridgingMatchesSerial(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, pop, sampled := BridgingSet(e.Circuit, faults.WiredOR, 150, 0.3, 7)
	serial := RunBridging(e, set, faults.WiredOR, pop, sampled)
	for _, workers := range []int{1, 4} {
		par, err := RunBridgingCampaign(c, nil, set, faults.WiredOR, pop, sampled, CampaignConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripStatsBF(par), stripStatsBF(serial)) {
			t.Fatalf("workers=%d: parallel study differs from serial", workers)
		}
	}
}

// TestStuckAtOrderPoliciesBitIdentical pins the dispatch guarantee: raw
// index order is the only dispatch order, and however the workers
// interleave, records are bit-identical to the serial run while the
// cone-restricted walk skips gates.
func TestStuckAtOrderPoliciesBitIdentical(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	serial := RunStuckAt(e, fs)
	for _, workers := range []int{1, 4} {
		par, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.GatesSkipped == 0 {
			t.Fatalf("workers=%d: worklist skipped no gates", workers)
		}
		if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(serial)) {
			t.Fatalf("workers=%d: study differs from serial index order", workers)
		}
	}
}

// TestBridgingOrderPoliciesBitIdentical extends the dispatch guarantee to
// the bridging campaign under both bridge kinds.
func TestBridgingOrderPoliciesBitIdentical(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		set, pop, sampled := BridgingSet(e.Circuit, kind, 150, 0.3, 7)
		serial := RunBridging(e, set, kind, pop, sampled)
		for _, workers := range []int{1, 4} {
			par, err := RunBridgingCampaign(c, nil, set, kind, pop, sampled, CampaignConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripStatsBF(par), stripStatsBF(serial)) {
				t.Fatalf("kind=%v workers=%d: bridging study differs from serial", kind, workers)
			}
		}
	}
}

// TestParallelRace4Workers drives the work-stealing scheduler with more
// workers than CPUs would commonly grant, for both fault models, so `go
// test -race ./internal/analysis/...` exercises the shared engine views, the
// shared topology caches, the shared reachability table, and the progress
// path under the race detector.
func TestParallelRace4Workers(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	var mu sync.Mutex
	calls := 0
	last := 0
	cfg := CampaignConfig{Workers: 4, Progress: func(done, total int) {
		mu.Lock()
		calls++
		if done > last {
			last = done
		}
		if total != len(fs) {
			t.Errorf("progress total = %d, want %d", total, len(fs))
		}
		mu.Unlock()
	}}
	sa, err := RunStuckAtCampaign(c, nil, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Records) != len(fs) {
		t.Fatalf("%d records, want %d", len(sa.Records), len(fs))
	}
	if calls != len(fs) || last != len(fs) {
		t.Fatalf("progress saw %d calls (max done %d), want %d", calls, last, len(fs))
	}
	if sa.Stats.Workers != 4 {
		t.Fatalf("stats workers = %d, want 4", sa.Stats.Workers)
	}
	set, pop, sampled := BridgingSet(e.Circuit, faults.WiredAND, 80, 0.3, 7)
	bf, err := RunBridgingCampaign(c, nil, set, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Records) != len(set) {
		t.Fatalf("%d bridging records, want %d", len(bf.Records), len(set))
	}
}

// TestParallelRejectsBadCircuit covers the error path where the worker
// prototype's diffprop.New fails: the error must surface instead of
// panicking or returning a half-filled study.
func TestParallelRejectsBadCircuit(t *testing.T) {
	c := circuits.MustGet("c17")
	bad := &diffprop.Options{Order: []string{"nope"}}
	fs := faults.CheckpointStuckAts(c.Decompose2())
	if _, err := RunStuckAtCampaign(c, bad, fs, CampaignConfig{Workers: 4}); err == nil {
		t.Fatal("bad options must surface an error")
	}
	if _, err := RunBridgingCampaign(c, bad, faults.AllNFBFs(c, faults.WiredAND), faults.WiredAND, 1, false, CampaignConfig{Workers: 4}); err == nil {
		t.Fatal("bad options must surface an error (bridging)")
	}
}

// TestCampaignEmptyFaultSet pins the degenerate input: no faults, no
// workers to spawn, but a valid header and empty (non-nil) record slice.
func TestCampaignEmptyFaultSet(t *testing.T) {
	c := circuits.MustGet("c17")
	s, err := RunStuckAtCampaign(c, nil, nil, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 0 || s.Circuit == "" {
		t.Fatalf("unexpected study for empty fault set: %+v", s)
	}
}
