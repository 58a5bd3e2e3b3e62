package diffprop

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
)

// TestPISiteUnitMatchesPerFault checks StuckAtPI, which reads Boolean
// differences and functional supports, against per-fault StuckAt, which
// walks the gates, at every primary-input site of every catalog circuit:
// each polarity's Detectability bits, Complete, PerPO, ObservedPOs and
// GatesEvaluated must be identical, and the unit must report its phase
// times. Sites whose collapsed list keeps only one polarity are checked
// through a one-entry call.
func TestPISiteUnitMatchesPerFault(t *testing.T) {
	for _, name := range []string{"c17", "fadd", "c95s", "alu181", "c432s", "c499s", "c1355s", "c1908s"} {
		e, err := New(circuits.MustGet(name), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.EnablePhaseTiming(true)
		w := e.Circuit
		fs := faults.CheckpointStuckAts(w)
		// Polarities of every PI site, in list order.
		var nets []int
		sites := map[int][]faults.StuckAt{}
		for _, f := range fs {
			if f.IsBranch() || !w.IsInput(f.Net) {
				continue
			}
			if sites[f.Net] == nil {
				nets = append(nets, f.Net)
			}
			sites[f.Net] = append(sites[f.Net], f)
		}
		if len(nets) == 0 {
			t.Fatalf("%s: no primary-input sites", name)
		}
		pairs := 0
		for _, net := range nets {
			site := sites[net]
			stuck := make([]bool, len(site))
			for k, f := range site {
				stuck[k] = f.Stuck
			}
			if len(site) == 2 {
				pairs++
			}
			// Refs stay valid until the next compaction: start each site
			// far enough below the rebuild limit that none runs inside the
			// comparison.
			if e.Manager().NodeCount() > 1<<20 {
				e.Recover()
			}
			rebuilds := e.Rebuilds()
			got := e.StuckAtPI(net, stuck)
			// Traces attribute a unit's time through its phases.
			if ph := e.LastPhases(); ph.Propagate <= 0 || ph.SatCount <= 0 {
				t.Fatalf("%s: StuckAtPI left phases %+v", name, ph)
			}
			for k, f := range site {
				want := e.StuckAt(f)
				g := got[k]
				if math.Float64bits(g.Detectability) != math.Float64bits(want.Detectability) ||
					g.Complete != want.Complete ||
					!reflect.DeepEqual(g.PerPO, want.PerPO) ||
					!reflect.DeepEqual(g.ObservedPOs, want.ObservedPOs) ||
					g.GatesEvaluated != want.GatesEvaluated {
					t.Fatalf("%s %v: shared walk %+v, per fault %+v", name, f.Describe(w), g, want)
				}
			}
			if e.Rebuilds() != rebuilds {
				t.Fatalf("%s: table compacted mid-comparison", name)
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no two-polarity PI site exercised", name)
		}
	}
}
