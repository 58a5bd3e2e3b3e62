package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Layer: "bench", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", Layer: "analysis", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", Layer: "bdd", StartNS: 20, EndNS: 30, Parent: 1},
		{Name: "c", Layer: "analysis", StartNS: 50, EndNS: 60, Parent: 0},
	}}
	self := tr.selfTimes()
	want := map[string]time.Duration{"bench": 60, "analysis": 30, "bdd": 10}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], d)
		}
	}
	if got := tr.coverage(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("coverage = %v, want 0.4", got)
	}
}

func TestSpansNestUnderOpenParent(t *testing.T) {
	tr := newTracer("run-1")
	tr.begin("run", "bench")
	tr.timed("outer", "analysis", func() { tr.timed("inner", "bdd", func() {}) })
	tr.end()
	for i, want := range []int{-1, 0, 1} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", i, got, want)
		}
	}
	var nilTracer *tracer
	ran := false
	nilTracer.timed("x", "y", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the call")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 4, 8}, 1.25, 3, 7},
	} {
		q1, med, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestSampleStuckAtsEvenlySpaced(t *testing.T) {
	fs := make([]faults.StuckAt, 100)
	for i := range fs {
		fs[i] = faults.StuckAt{Net: i}
	}
	for seed := int64(0); seed < 20; seed++ {
		got := sampleStuckAts(fs, 30, seed)
		if len(got) != 30 {
			t.Fatalf("seed %d: %d faults, want 30", seed, len(got))
		}
		for i := 1; i < len(got); i++ {
			if gap := got[i].Net - got[i-1].Net; gap < 3 || gap > 4 {
				t.Fatalf("seed %d: gap %d between picks %d and %d, want 3 or 4", seed, gap, i-1, i)
			}
		}
	}
	if got := sampleStuckAts(fs, 0, 1); len(got) != len(fs) {
		t.Errorf("n=0 kept %d faults, want all %d", len(got), len(fs))
	}
}

func TestCampaignsAreAFunctionOfTheSeed(t *testing.T) {
	fingerprints := func(seed int64) []string {
		cs, err := buildCampaigns(wlCatalog, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cs {
			out = append(out, c.key+" "+c.header().Fingerprint)
		}
		return out
	}
	a, b, c := fingerprints(7), fingerprints(7), fingerprints(8)
	if len(a) != 18 {
		t.Fatalf("catalog has %d campaigns, want 18", len(a))
	}
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seed 7 gave two fault sets for campaign %d: %s vs %s", i, a[i], b[i])
		}
		differ = differ || a[i] != c[i]
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same catalog fault sets")
	}
}
