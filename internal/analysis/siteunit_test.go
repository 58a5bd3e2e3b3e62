package analysis

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// siteUnitFixture returns a circuit, its collapsed checkpoint faults (the
// first limit of them, or all when limit is 0) and the per-fault serial
// reference records, each built by stuckAtModel.exact on one engine with no
// shared walk involved.
func siteUnitFixture(t *testing.T, name string, limit int) (*netlist.Circuit, []faults.StuckAt, []StuckAtRecord) {
	t.Helper()
	c := circuits.MustGet(name)
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	fs := faults.CheckpointStuckAts(w)
	if limit > 0 && len(fs) > limit {
		fs = fs[:limit]
	}
	toPO, levels := w.MaxLevelsToPO(), w.Levels()
	ref := make([]StuckAtRecord, len(fs))
	for i, f := range fs {
		ref[i] = stuckAtModel.exact(e, f, distances{toPO, levels})
	}
	return c, fs, ref
}

// piPairs counts the adjacent two-polarity primary-input pairs of a
// fault list: the units a campaign answers by shared walks.
func piPairs(w *netlist.Circuit, fs []faults.StuckAt) (pairs []int) {
	for i := 0; i+1 < len(fs); i++ {
		a, b := fs[i], fs[i+1]
		if !a.IsBranch() && !b.IsBranch() && a.Net == b.Net && w.IsInput(a.Net) {
			pairs = append(pairs, i)
			i++
		}
	}
	return pairs
}

// TestSiteUnitCampaignMatchesPerFault runs the campaign over several
// worker counts: each run must answer primary-input pairs by shared walks
// and still return records identical to the per-fault serial reference,
// with a cone walk that skips gates and gate counters that reconcile
// fault by fault. The C1908s case, the first 120 faults at 4 workers,
// puts the shared table under contention on a large circuit.
func TestSiteUnitCampaignMatchesPerFault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		limit   int
		workers []int
	}{
		{"c95s", 0, []int{1, 2, 4}},
		{"c432s", 0, []int{1, 2, 4}},
		{"c1908s", 120, []int{4}},
	} {
		c, fs, ref := siteUnitFixture(t, tc.name, tc.limit)
		w := c.Decompose2()
		pairs := len(piPairs(w, fs))
		var evals int64
		for _, r := range ref {
			evals += int64(r.GatesEvaluated)
		}
		if pairs == 0 {
			t.Fatalf("%s: no primary-input pair", tc.name)
		}
		for _, workers := range tc.workers {
			study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(study.Records, ref) {
				t.Fatalf("%s workers=%d: records differ from the per-fault reference", tc.name, workers)
			}
			s := study.Stats
			if s.SharedUnits != pairs {
				t.Fatalf("%s workers=%d: %d shared units, want the %d primary-input pairs",
					tc.name, workers, s.SharedUnits, pairs)
			}
			if s.GatesSkipped == 0 {
				t.Fatalf("%s workers=%d: the cone walk skipped no gates", tc.name, workers)
			}
			if s.GateEvaluations != evals || s.GatesVisited+s.GatesSkipped != int64(len(fs)*w.NumGates()) {
				t.Fatalf("%s workers=%d: gate counters %+v do not reconcile with %d faults",
					tc.name, workers, s, len(fs))
			}
		}
	}
}

// TestSiteUnitResumeSplitsPair resumes from a checkpoint holding only one
// polarity of a primary-input pair: the other polarity runs alone, and
// the study still matches the per-fault reference.
func TestSiteUnitResumeSplitsPair(t *testing.T) {
	c, fs, ref := siteUnitFixture(t, "c95s", 0)
	pairs := piPairs(c.Decompose2(), fs)
	first := pairs[len(pairs)/2]
	raw, err := json.Marshal(ref[first])
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
			Workers: workers,
			Resume:  map[int]json.RawMessage{first: raw},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(study.Records, ref) {
			t.Fatalf("workers=%d: resumed records differ from the per-fault reference", workers)
		}
		if study.Stats.Resumed != 1 || study.Stats.SharedUnits != len(pairs)-1 {
			t.Fatalf("workers=%d: resumed %d, %d shared units; want 1 and %d",
				workers, study.Stats.Resumed, study.Stats.SharedUnits, len(pairs)-1)
		}
	}
}

// TestSiteUnitChaosAbortsRescued injects budget aborts into about a third
// of the faults. A unit holding an injected fault is analyzed fault by
// fault, so every injection fires once and the ladder's retry rescues
// it, leaving the records identical to the clean run's.
func TestSiteUnitChaosAbortsRescued(t *testing.T) {
	c, fs, ref := siteUnitFixture(t, "c95s", 0)
	for _, workers := range []int{1, 2} {
		study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
			Workers:  workers,
			FaultOps: 50_000_000,
			Recovery: diffprop.Recovery{RetryMultiplier: 8},
			Chaos: &chaos.Config{Seed: 16, Rules: []chaos.Rule{
				{Point: chaos.PointBudget, Prob: 0.35},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := study.Stats
		if s.ChaosInjected == 0 || s.SharedUnits == 0 {
			t.Fatalf("workers=%d: %d injections, %d shared units; the run must exercise both", workers, s.ChaosInjected, s.SharedUnits)
		}
		if int64(s.Rescued) != s.ChaosInjected || s.Degraded != 0 {
			t.Fatalf("workers=%d: %d injected aborts, %d rescued, %d degraded; every abort must be rescued",
				workers, s.ChaosInjected, s.Rescued, s.Degraded)
		}
		if !reflect.DeepEqual(study.Records, ref) {
			t.Fatalf("workers=%d: chaos records differ from the clean reference", workers)
		}
	}
}

// TestSiteUnitBudgetFallback gives every fault a one-op budget: each
// shared walk aborts under its doubled budget, its faults fall back to the
// per-fault ladder, and the relaxed retry rescues them all to the exact
// per-fault records.
func TestSiteUnitBudgetFallback(t *testing.T) {
	c, fs, ref := siteUnitFixture(t, "c95s", 0)
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:  2,
		FaultOps: 1,
		Recovery: diffprop.Recovery{RetryMultiplier: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.SharedUnits != 0 || study.Stats.Rescued == 0 || study.Stats.Degraded != 0 {
		t.Fatalf("stats %+v: want every shared walk to fall back and every fault rescued", study.Stats)
	}
	if !reflect.DeepEqual(study.Records, ref) {
		t.Fatal("fallback records differ from the per-fault reference")
	}
}
