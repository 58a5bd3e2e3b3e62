package diffprop

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/simulate"
)

func TestMultipleStuckAtSingleEqualsStuckAt(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	for _, f := range faults.CheckpointStuckAts(w)[:60] {
		single := e.StuckAt(f)
		multi := e.MultipleStuckAt([]faults.StuckAt{f})
		if single.Complete != multi.Complete {
			t.Fatalf("%v: multiple-fault machinery disagrees with single-fault path", f.Describe(w))
		}
	}
}

func TestMultipleStuckAtExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, name := range []string{"c17", "fadd", "c95s"} {
		e := newEngine(t, name)
		w := e.Circuit
		pool := faults.CheckpointStuckAts(w)
		p := simulate.Exhaustive(len(w.Inputs))
		for trial := 0; trial < 60; trial++ {
			k := 2 + rng.Intn(2) // double and triple faults
			multi := make([]faults.StuckAt, k)
			for i := range multi {
				multi[i] = pool[rng.Intn(len(pool))]
			}
			got := e.MultipleStuckAt(multi).Detectability
			want := float64(simulate.CountBits(simulate.DetectMultipleStuckAt(w, multi, p))) / float64(p.Count)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s multi %v: DP=%v exhaustive=%v", name, multi, got, want)
			}
		}
	}
}

func TestMultipleStuckAtMasking(t *testing.T) {
	// A downstream forced site must override an upstream fault: with
	// z = NOT(a) and both a/SA1 and z/SA1 present, the composite behaves
	// exactly like z/SA1 alone.
	c := netlist.New("mask")
	a := c.AddInput("a")
	z := c.AddGate("z", netlist.Not, a)
	c.MarkOutput(z)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	fa := faults.StuckAt{Net: w.NetByName("a"), Gate: -1, Pin: -1, Stuck: true}
	fz := faults.StuckAt{Net: w.NetByName("z"), Gate: -1, Pin: -1, Stuck: true}
	composite := e.MultipleStuckAt([]faults.StuckAt{fa, fz})
	alone := e.StuckAt(fz)
	if composite.Complete != alone.Complete {
		t.Fatal("downstream force must dominate the composite fault")
	}
}

func TestMultipleStuckAtCancellation(t *testing.T) {
	// Two faults can hide each other where a single one is visible:
	// compare the double fault's test set against the union and check it
	// is not simply the union (on a circuit where cancellation exists).
	e := newEngine(t, "c17")
	w := e.Circuit
	m := e.Manager()
	n := func(s string) int { return w.NetByName(s) }
	// Force both NAND outputs feeding PO 22 in ways that can compensate.
	f1 := faults.StuckAt{Net: n("10"), Gate: -1, Pin: -1, Stuck: true}
	f2 := faults.StuckAt{Net: n("16"), Gate: -1, Pin: -1, Stuck: true}
	double := e.MultipleStuckAt([]faults.StuckAt{f1, f2}).Complete
	union := m.Or(e.StuckAt(f1).Complete, e.StuckAt(f2).Complete)
	if double == union {
		t.Skip("no cancellation on this pair; pick another")
	}
	// Exhaustive check that the double-fault set is the truth.
	p := simulate.Exhaustive(5)
	mask := simulate.DetectMultipleStuckAt(w, []faults.StuckAt{f1, f2}, p)
	if int(m.SatCount(double).Int64()) != simulate.CountBits(mask) {
		t.Fatal("double-fault test set wrong")
	}
}

func TestGateSubstitutionExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, name := range []string{"c17", "fadd", "c95s"} {
		e := newEngine(t, name)
		w := e.Circuit
		subs := faults.AllGateSubs(w)
		p := simulate.Exhaustive(len(w.Inputs))
		for trial := 0; trial < 50 && trial < len(subs); trial++ {
			s := subs[rng.Intn(len(subs))]
			got := e.GateSubstitution(s.Gate, s.WrongType).Detectability
			want := float64(simulate.CountBits(simulate.DetectGateSub(w, s, p))) / float64(p.Count)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s %v: DP=%v exhaustive=%v", name, s.Describe(w), got, want)
			}
		}
	}
}

func TestGateSubstitutionKnownCases(t *testing.T) {
	// z = AND(a, b) replaced by OR: differs exactly where a != b, so the
	// detectability is 1/2. Replaced by NAND: differs everywhere... on the
	// output gate every difference is observable.
	c := netlist.New("sub")
	a := c.AddInput("a")
	b := c.AddInput("b")
	z := c.AddGate("z", netlist.And, a, b)
	c.MarkOutput(z)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	zn := e.Circuit.NetByName("z")
	if d := e.GateSubstitution(zn, netlist.Or).Detectability; d != 0.5 {
		t.Fatalf("AND->OR detectability %v, want 0.5", d)
	}
	if d := e.GateSubstitution(zn, netlist.Nand).Detectability; d != 1 {
		t.Fatalf("AND->NAND detectability %v, want 1", d)
	}
	// AND and XNOR agree except on the all-zero input.
	if d := e.GateSubstitution(zn, netlist.Xnor).Detectability; d != 0.25 {
		t.Fatalf("AND->XNOR detectability %v, want 0.25", d)
	}
}

func TestGateSubstitutionPanics(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("substitute input", func() { e.GateSubstitution(w.Inputs[0], netlist.And) })
	mustPanic("arity mismatch", func() { e.GateSubstitution(w.NetByName("10"), netlist.Not) })
	mustPanic("input type", func() { e.GateSubstitution(w.NetByName("10"), netlist.Input) })
}

func TestAllGateSubsShape(t *testing.T) {
	c := circuits.MustGet("c17")
	subs := faults.AllGateSubs(c)
	// 6 NAND gates x 5 alternative binary types.
	if len(subs) != 30 {
		t.Fatalf("c17 has %d substitutions, want 30", len(subs))
	}
	for _, s := range subs {
		if s.WrongType == c.Gates[s.Gate].Type {
			t.Fatal("substitution with the designed type is not a fault")
		}
	}
}
