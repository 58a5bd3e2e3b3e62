package analysis

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// TestBudgetDegradation forces every fault over a one-operation budget:
// records must carry simulation estimates marked Approximate instead of
// growing without bound, and CampaignStats.Degraded must count them.
func TestBudgetDegradation(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	fs := faults.CheckpointStuckAts(work)
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3, FaultOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Degraded == 0 {
		t.Fatal("a 1-op budget degraded nothing")
	}
	degraded := 0
	for i, r := range study.Records {
		if r.Skipped || r.Err != "" {
			t.Fatalf("record %d: unexpected skip/error %+v", i, r)
		}
		if !r.Approximate {
			continue
		}
		degraded++
		if r.EstimateVectors != DefaultFallbackVectors {
			t.Fatalf("record %d: estimate over %d vectors, want %d", i, r.EstimateVectors, DefaultFallbackVectors)
		}
		if r.Detectability < 0 || r.Detectability > 1 {
			t.Fatalf("record %d: estimate %f out of range", i, r.Detectability)
		}
		if r.MaxLevelsToPO == 0 && r.LevelFromPI == 0 && r.POsFed == 0 {
			t.Fatalf("record %d: degraded record lost its topology fields", i)
		}
	}
	if degraded != study.Stats.Degraded {
		t.Fatalf("%d Approximate records but Stats.Degraded = %d", degraded, study.Stats.Degraded)
	}

	// Degraded estimates are schedule-invariant: a serial run with the
	// same budget produces the same estimate for every degraded fault.
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultBudget(1)
	serial := RunStuckAt(e, fs)
	for i, r := range study.Records {
		if r.Approximate && serial.Records[i].Approximate {
			if r.Detectability != serial.Records[i].Detectability {
				t.Fatalf("record %d: parallel estimate %f != serial %f", i, r.Detectability, serial.Records[i].Detectability)
			}
		}
	}
}

// TestBudgetDegradationBridging covers the bridging degradation path.
func TestBudgetDegradationBridging(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	bs, pop, sampled := BridgingSet(work, faults.WiredAND, 80, 0.3, 7)
	study, err := RunBridgingCampaign(c, nil, bs, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 3, FaultOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Degraded == 0 {
		t.Fatal("a 1-op budget degraded nothing")
	}
	for i, r := range study.Records {
		if r.Err != "" || r.Skipped {
			t.Fatalf("record %d: unexpected error/skip %+v", i, r)
		}
		if r.Approximate && (r.Detectability < 0 || r.Detectability > 1) {
			t.Fatalf("record %d: estimate %f out of range", i, r.Detectability)
		}
	}
}

// TestPreCanceledContext pins the cancellation contract: an already-dead
// context returns promptly with every fault marked Skipped and Canceled
// set.
func TestPreCanceledContext(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !study.Stats.Canceled {
		t.Fatal("Canceled not set")
	}
	if study.Stats.Faults != 0 {
		t.Fatalf("%d faults analyzed under a dead context", study.Stats.Faults)
	}
	if len(study.Records) != len(fs) {
		t.Fatalf("partial study has %d records, want index-aligned %d", len(study.Records), len(fs))
	}
	for i, r := range study.Records {
		if !r.Skipped {
			t.Fatalf("record %d not marked Skipped: %+v", i, r)
		}
		if r.Fault != fs[i] {
			t.Fatalf("record %d lost its fault identity", i)
		}
	}
}

// feedbackBridge finds one feedback pair in the circuit.
func feedbackBridge(t *testing.T, work *faults.Reachability, nets int, kind faults.BridgeKind) faults.Bridging {
	t.Helper()
	for u := 0; u < nets; u++ {
		for v := u + 1; v < nets; v++ {
			if work.IsFeedback(u, v) {
				return faults.Bridging{U: u, V: v, Kind: kind}
			}
		}
	}
	t.Fatal("no feedback pair found")
	return faults.Bridging{}
}

// TestPanicIsolationBridging injects a feedback bridge — which makes
// diffprop.Engine.Bridging panic — into the middle of a fault set. The
// panic must poison only its own index, serial and parallel runs must
// produce identical studies, and the campaign must report the error.
func TestPanicIsolationBridging(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := e.Circuit
	set, pop, sampled := BridgingSet(work, faults.WiredAND, 40, 0.3, 7)
	bad := feedbackBridge(t, faults.NewReachability(work), work.NumNets(), faults.WiredAND)
	mid := len(set) / 2
	set = append(set[:mid:mid], append([]faults.Bridging{bad}, set[mid:]...)...)

	serial := RunBridging(e, set, faults.WiredAND, pop, sampled)
	errs := serial.Errors()
	if len(errs) != 1 || errs[0].Index != mid {
		t.Fatalf("serial errors = %v, want exactly index %d", errs, mid)
	}
	if !strings.Contains(errs[0].Err, "feedback bridge") {
		t.Fatalf("error message %q does not name the cause", errs[0].Err)
	}
	for i, r := range serial.Records {
		if i != mid && (r.Err != "" || r.Skipped) {
			t.Fatalf("panic poisoned record %d too: %+v", i, r)
		}
	}

	par, err := RunBridgingCampaign(c, nil, set, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Errored != 1 {
		t.Fatalf("Stats.Errored = %d, want 1", par.Stats.Errored)
	}
	if !reflect.DeepEqual(stripStatsBF(par), stripStatsBF(serial)) {
		t.Fatal("parallel study with isolated panic differs from serial")
	}
}

// TestPanicIsolationStuckAt uses an out-of-range fault site to trigger a
// runtime panic inside the analysis, for both runners.
func TestPanicIsolationStuckAt(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	bad := faults.StuckAt{Net: e.Circuit.NumNets() + 41, Gate: -1, Pin: -1}
	mid := len(fs) / 2
	fs = append(fs[:mid:mid], append([]faults.StuckAt{bad}, fs[mid:]...)...)

	serial := RunStuckAt(e, fs)
	errs := serial.Errors()
	if len(errs) != 1 || errs[0].Index != mid {
		t.Fatalf("serial errors = %v, want exactly index %d", errs, mid)
	}

	par, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Errored != 1 {
		t.Fatalf("Stats.Errored = %d, want 1", par.Stats.Errored)
	}
	if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(serial)) {
		t.Fatal("parallel study with isolated panic differs from serial")
	}
}

// TestProgressMonotonic is the regression test for the out-of-order
// progress bug: done must advance by exactly one per callback (the
// callback is serialized under the same lock as the increment).
func TestProgressMonotonic(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	prev := 0
	_, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers: 8,
		Progress: func(done, total int) {
			if done != prev+1 {
				t.Errorf("progress jumped from %d to %d", prev, done)
			}
			prev = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prev != len(fs) {
		t.Fatalf("final done = %d, want %d", prev, len(fs))
	}
}
