package diffprop

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
)

// TestPISiteUnitMatchesPerFault checks StuckAtPI against per-fault StuckAt
// at every primary-input site of the catalog circuits (the C1908s list is
// cut to its first 119 faults, the prefix the benchmarks run): each
// polarity's Detectability bits, Complete, PerPO, ObservedPOs and
// GatesEvaluated must be identical. Sites whose collapsed list keeps only
// one polarity are checked through a one-entry call.
func TestPISiteUnitMatchesPerFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  int
	}{
		{"c17", 0}, {"fadd", 0}, {"c95s", 0}, {"alu181", 0},
		{"c432s", 0}, {"c499s", 0}, {"c1908s", 119},
	} {
		e, err := New(circuits.MustGet(tc.name), nil)
		if err != nil {
			t.Fatal(err)
		}
		w := e.Circuit
		fs := faults.CheckpointStuckAts(w)
		if tc.max > 0 && len(fs) > tc.max {
			fs = fs[:tc.max]
		}
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
			t.Fatalf("%s: no primary-input sites", tc.name)
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
			for k, f := range site {
				want := e.StuckAt(f)
				g := got[k]
				if math.Float64bits(g.Detectability) != math.Float64bits(want.Detectability) ||
					g.Complete != want.Complete ||
					!reflect.DeepEqual(g.PerPO, want.PerPO) ||
					!reflect.DeepEqual(g.ObservedPOs, want.ObservedPOs) ||
					g.GatesEvaluated != want.GatesEvaluated {
					t.Fatalf("%s %v: shared walk %+v, per fault %+v", tc.name, f.Describe(w), g, want)
				}
			}
			if e.Rebuilds() != rebuilds {
				t.Fatalf("%s: table compacted mid-comparison", tc.name)
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no two-polarity PI site exercised", tc.name)
		}
	}
}
