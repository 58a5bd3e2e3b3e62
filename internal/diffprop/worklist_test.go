package diffprop

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// pair builds two independent engines over the same circuit: one running
// the cone-restricted worklist, one the full-gate-scan reference. Both
// start from identical cold managers, so as long as the two paths issue
// the same BDD operation sequence (the property under test) their caches
// evolve in lockstep and refs and per-analysis op counts stay directly
// comparable query after query.
func pair(t *testing.T, c *netlist.Circuit) (wl, fs *Engine) {
	t.Helper()
	var err error
	if wl, err = New(c, nil); err != nil {
		t.Fatal(err)
	}
	if fs, err = New(c, nil); err != nil {
		t.Fatal(err)
	}
	fs.fullScan = true
	return wl, fs
}

// check runs the same query on the worklist engine and the full-scan
// reference and asserts bit-identity: same PerPO refs (both managers have
// seen the same allocation history), same complete set, same
// selective-trace gate count, and the same number of charged BDD
// operations — a divergence anywhere in the operation sequence shows up
// in the charge meter.
func check(t *testing.T, label string, wl, fs *Engine, query func(e *Engine) Result) {
	t.Helper()
	got := query(wl)
	gotOps := wl.AnalysisOps()
	want := query(fs)
	wantOps := fs.AnalysisOps()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: worklist result %+v != full-scan %+v", label, got, want)
	}
	if gotOps != wantOps {
		t.Fatalf("%s: worklist charged %d ops, full scan %d", label, gotOps, wantOps)
	}
	if cone := wl.LastConeGates(); cone > wl.Circuit.NumNets() {
		t.Fatalf("%s: merged cone %d exceeds circuit size %d", label, cone, wl.Circuit.NumNets())
	}
}

// TestWorklistMatchesFullScanRandomCircuits is the PR's bit-identity
// property: on hundreds of random circuits the cone-restricted worklist
// must reproduce the full-gate-scan reference exactly — same difference
// functions, same selective-trace gate counts, same BDD operation charge —
// for every fault model the engine supports.
func TestWorklistMatchesFullScanRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	trials := 120
	if testing.Short() {
		trials = 20
	}
	var visited, skipped int64
	for trial := 0; trial < trials; trial++ {
		c := randomCircuit(rng, 4+rng.Intn(5), 8+rng.Intn(20))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		wl, fsv := pair(t, c)
		w := wl.Circuit

		// Single stuck-at faults, net and branch flavors.
		for i := 0; i < 5; i++ {
			f := faults.StuckAt{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: rng.Intn(2) == 1}
			check(t, fmt.Sprintf("trial %d %v", trial, f.Describe(w)), wl, fsv,
				func(e *Engine) Result { return e.StuckAt(f) })
		}
		if stems := w.Stems(); len(stems) > 0 {
			net := stems[rng.Intn(len(stems))]
			g := w.Fanout()[net][0]
			for pin, fin := range w.Gates[g].Fanin {
				if fin == net {
					f := faults.StuckAt{Net: net, Gate: g, Pin: pin, Stuck: true}
					check(t, fmt.Sprintf("trial %d branch %v", trial, f.Describe(w)), wl, fsv,
						func(e *Engine) Result { return e.StuckAt(f) })
					break
				}
			}
		}
		// Multiple stuck-at: seeds at several sites force a merged cone.
		multi := []faults.StuckAt{
			{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: true},
			{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: false},
		}
		check(t, fmt.Sprintf("trial %d multi", trial), wl, fsv,
			func(e *Engine) Result { return e.MultipleStuckAt(multi) })
		// Gate substitution.
		if subs := faults.AllGateSubs(w); len(subs) > 0 {
			s := subs[rng.Intn(len(subs))]
			check(t, fmt.Sprintf("trial %d %v", trial, s.Describe(w)), wl, fsv,
				func(e *Engine) Result { return e.GateSubstitution(s.Gate, s.WrongType) })
		}
		// Bridging (both wired types when the circuit admits any).
		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			if all := faults.AllNFBFs(w, kind); len(all) > 0 {
				b := all[rng.Intn(len(all))]
				check(t, fmt.Sprintf("trial %d %v", trial, b.Describe(w)), wl, fsv,
					func(e *Engine) Result { return e.Bridging(b) })
			}
		}
		v, s := wl.GateWalk()
		visited += v
		skipped += s
		if fv, fsk := fsv.GateWalk(); fsk != 0 {
			t.Fatalf("trial %d: full-scan reference skipped %d gates (visited %d)", trial, fsk, fv)
		}
	}
	// The strict-subset witness: across the whole run the worklist must
	// have skipped real work somewhere, or it is not restricting anything.
	if skipped == 0 {
		t.Fatalf("worklist skipped no gates over %d trials (visited %d)", trials, visited)
	}
}

// TestWorklistBudgetAbortMatchesFullScan pins the abort behavior: under
// the same per-fault op budget the worklist and the full scan blow at the
// same charged-op count, and after recovery — including the ladder's
// relaxed-budget retry — they still produce identical results.
func TestWorklistBudgetAbortMatchesFullScan(t *testing.T) {
	c := circuits.MustGet("c95s")
	probe, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(probe.Circuit)

	tested := 0
	for _, f := range fs {
		if tested == 4 {
			break
		}
		// Cost the fault on a cold engine; fresh engines below replay the
		// same cold-cache operation sequence, so cost/2 must abort both.
		ec, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ec.StuckAt(f)
		cost := ec.AnalysisOps()
		if cost < 4 {
			continue
		}
		tested++
		want.PerPO, want.Complete = nil, bdd.False // refs are engine-local

		wl, fsv := pair(t, c)
		budget := cost / 2
		wl.SetFaultBudget(budget)
		fsv.SetFaultBudget(budget)
		if _, abort := analyzeAborting(t, wl, f); !errors.Is(abort, bdd.ErrBudget) {
			t.Fatalf("%v: worklist did not abort at ops=%d (abort=%v)", f.Describe(c), budget, abort)
		}
		if _, abort := analyzeAborting(t, fsv, f); !errors.Is(abort, bdd.ErrBudget) {
			t.Fatalf("%v: full scan did not abort at ops=%d (abort=%v)", f.Describe(c), budget, abort)
		}
		if a, b := wl.LastAbortOps(), fsv.LastAbortOps(); a != b {
			t.Fatalf("%v: worklist aborted at %d ops, full scan at %d", f.Describe(c), a, b)
		}

		// Recovery-ladder retry rung: a 4x relaxed budget covers the real
		// cost, so both paths must now finish with the reference result.
		ladder := Recovery{RetryMultiplier: 4}
		wl.SetRecovery(ladder)
		fsv.SetRecovery(ladder)
		for _, eng := range []*Engine{wl, fsv} {
			restore, ok := eng.RelaxBudget()
			if !ok {
				t.Fatalf("%v: retry rung did not arm", f.Describe(c))
			}
			got, abort := analyzeAborting(t, eng, f)
			restore()
			if abort != nil {
				t.Fatalf("%v: relaxed retry aborted with %v (fullscan=%v)", f.Describe(c), abort, eng.fullScan)
			}
			got.PerPO, got.Complete = nil, bdd.False
			got.ObservedPOs = append([]int(nil), got.ObservedPOs...)
			want.ObservedPOs = append([]int(nil), want.ObservedPOs...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: retry result %+v != reference %+v (fullscan=%v)",
					f.Describe(c), got, want, eng.fullScan)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no fault was expensive enough to exercise the abort path")
	}
}
