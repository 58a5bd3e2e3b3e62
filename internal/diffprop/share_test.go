package diffprop

import (
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
)

// TestShareCarriesSyndromeCache checks that syndromes computed on the
// source before Share are visible in the view with the same values.
func TestShareCarriesSyndromeCache(t *testing.T) {
	c := circuits.MustGet("c95s")
	src, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, src.Circuit.NumNets())
	for net := range want {
		want[net] = src.Syndrome(net)
	}
	view := src.Share()
	for net := range want {
		if got := view.Syndrome(net); got != want[net] {
			t.Fatalf("net %d: view syndrome %v, source %v", net, got, want[net])
		}
	}
}

// TestVarToInputCached verifies the mapping is computed once, is correct,
// and is shared with Share views.
func TestVarToInputCached(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2i := e.VarToInput()
	if &v2i[0] != &e.VarToInput()[0] {
		t.Fatal("VarToInput must return the cached mapping, not a rebuild")
	}
	names := e.Circuit.InputNames()
	m := e.Manager()
	for v, i := range v2i {
		if i < 0 {
			continue
		}
		if names[i] != m.VarName(v) {
			t.Fatalf("variable %d (%s) mapped to input %d (%s)", v, m.VarName(v), i, names[i])
		}
	}
	if &e.Share().VarToInput()[0] != &v2i[0] {
		t.Fatal("a Share view must alias the input mapping")
	}
}

// referenceMinimalTestCube is the pre-optimization O(vars²) implementation,
// kept verbatim as the oracle for the linear rewrite.
func referenceMinimalTestCube(e *Engine, res Result) []int8 {
	m := e.Manager()
	cube := m.AnySat(res.Complete)
	if cube == nil {
		return nil
	}
	build := func(c []int8) bdd.Ref {
		f := bdd.True
		for v, s := range c {
			switch s {
			case 0:
				f = m.And(f, m.NVar(v))
			case 1:
				f = m.And(f, m.Var(v))
			}
		}
		return f
	}
	for v := range cube {
		if cube[v] < 0 {
			continue
		}
		saved := cube[v]
		cube[v] = -1
		if m.And(build(cube), m.Not(res.Complete)) != bdd.False {
			cube[v] = saved
		}
	}
	return cube
}

// TestMinimalTestCubeMatchesReference asserts the linear prefix/suffix
// implementation yields exactly the cube of the quadratic original on the
// seed circuits.
func TestMinimalTestCubeMatchesReference(t *testing.T) {
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		c := circuits.MustGet(name)
		e, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults.CheckpointStuckAts(e.Circuit) {
			res := e.StuckAt(f)
			want := referenceMinimalTestCube(e, res)
			got := e.MinimalTestCube(res)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: cube %v, reference %v", name, f, got, want)
			}
			if got == nil {
				continue
			}
			// The widened cube must still imply the complete test set.
			m := e.Manager()
			cubeF := bdd.True
			for v, s := range got {
				switch s {
				case 0:
					cubeF = m.And(cubeF, m.NVar(v))
				case 1:
					cubeF = m.And(cubeF, m.Var(v))
				}
			}
			if m.And(cubeF, m.Not(res.Complete)) != bdd.False {
				t.Fatalf("%s %v: widened cube leaves the test set", name, f)
			}
		}
	}
}

// TestEngineStats sanity-checks the runtime counters.
func TestEngineStats(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Analyses != 0 || s.GateEvaluations != 0 {
		t.Fatalf("fresh engine has non-zero analysis counters: %+v", s)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	var evals int64
	for _, f := range fs {
		evals += int64(e.StuckAt(f).GatesEvaluated)
	}
	s := e.Stats()
	if s.Analyses != len(fs) {
		t.Fatalf("stats count %d analyses, want %d", s.Analyses, len(fs))
	}
	if s.GateEvaluations != evals {
		t.Fatalf("stats total %d gate evaluations, want %d", s.GateEvaluations, evals)
	}
	if s.PeakNodes < e.Manager().NodeCount() {
		t.Fatalf("peak nodes %d below live node count %d", s.PeakNodes, e.Manager().NodeCount())
	}
	if s.Cache.ApplyHits+s.Cache.ApplyMisses == 0 {
		t.Fatal("apply cache counters never moved")
	}
	if view := e.Share(); view.Stats().Analyses != 0 {
		t.Fatal("a Share view must start with zero analysis counters")
	}
}
