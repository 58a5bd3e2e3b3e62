package diffprop

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/simulate"
)

// --- Table 1 identities -------------------------------------------------

// TestTable1TruthTables checks the ring-sum identities over random truth
// tables: with F = f ⊕ Δ at each input, the output difference computed by
// the Table 1 formula must equal good-output XOR faulty-output.
func TestTable1TruthTables(t *testing.T) {
	err := quick.Check(func(fa, fb, da, db uint16) bool {
		FA := fa ^ da
		FB := fb ^ db
		// AND / NAND share a difference; same for OR/NOR and XOR/XNOR.
		andOK := (fa&fb)^(FA&FB) == (fa&db)^(fb&da)^(da&db)
		orOK := (fa|fb)^(FA|FB) == (^fa&db)^(^fb&da)^(da&db)
		xorOK := (fa^fb)^(FA^FB) == da^db
		notOK := ^fa^^FA == da
		return andOK && orOK && xorOK && notOK
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTable1Symbolic checks the same identities symbolically on BDDs.
func TestTable1Symbolic(t *testing.T) {
	m := bdd.NewAnon(8)
	rng := rand.New(rand.NewSource(71))
	randf := func() bdd.Ref {
		f := m.Var(rng.Intn(8))
		for i := 0; i < 6; i++ {
			g := m.Var(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				f = m.And(f, g)
			case 1:
				f = m.Or(f, g)
			default:
				f = m.Xor(f, g)
			}
		}
		return f
	}
	for trial := 0; trial < 100; trial++ {
		fa, fb, da, db := randf(), randf(), randf(), randf()
		FA, FB := m.Xor(fa, da), m.Xor(fb, db)
		// AND.
		lhs := m.Xor(m.And(fa, fb), m.And(FA, FB))
		rhs := m.Xor(m.Xor(m.And(fa, db), m.And(fb, da)), m.And(da, db))
		if lhs != rhs {
			t.Fatal("AND identity fails symbolically")
		}
		// NAND difference equals AND difference.
		if m.Xor(m.Nand(fa, fb), m.Nand(FA, FB)) != rhs {
			t.Fatal("NAND difference must equal AND difference")
		}
		// OR.
		lhs = m.Xor(m.Or(fa, fb), m.Or(FA, FB))
		rhs = m.Xor(m.Xor(m.And(m.Not(fa), db), m.And(m.Not(fb), da)), m.And(da, db))
		if lhs != rhs {
			t.Fatal("OR identity fails symbolically")
		}
		if m.Xor(m.Nor(fa, fb), m.Nor(FA, FB)) != rhs {
			t.Fatal("NOR difference must equal OR difference")
		}
		// XOR.
		if m.Xor(m.Xor(fa, fb), m.Xor(FA, FB)) != m.Xor(da, db) {
			t.Fatal("XOR identity fails symbolically")
		}
	}
}

// --- Exactness against exhaustive simulation ----------------------------

func newEngine(t testing.TB, name string) *Engine {
	t.Helper()
	e, err := New(circuits.MustGet(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStuckAtExactness(t *testing.T) {
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			got := e.StuckAt(f).Detectability
			want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s %v: DP=%v exhaustive=%v", name, f.Describe(w), got, want)
			}
		}
	}
}

func TestStuckAtExactnessAllNets(t *testing.T) {
	// Every net fault, not just checkpoints, on the two tiniest circuits.
	for _, name := range []string{"c17", "fadd"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.AllStuckAts(w) {
			got := e.StuckAt(f).Detectability
			want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s %v: DP=%v exhaustive=%v", name, f.Describe(w), got, want)
			}
		}
	}
}

func TestBridgingExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			all := faults.AllNFBFs(w, kind)
			// Sample up to 40 per kind for runtime.
			for trial := 0; trial < 40 && trial < len(all); trial++ {
				b := all[rng.Intn(len(all))]
				got := e.Bridging(b).Detectability
				want := simulate.ExhaustiveDetectabilityBridging(w, b)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("%s %v: DP=%v exhaustive=%v", name, b.Describe(w), got, want)
				}
			}
		}
	}
}

func TestPerPOAgainstExhaustive(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	for _, f := range faults.CheckpointStuckAts(w) {
		res := e.StuckAt(f)
		// Per-PO reference: compare good vs faulty at each output alone by
		// restricting the circuit to one output at a time.
		for i, o := range w.Outputs {
			single := w.Clone()
			single.Outputs = []int{o}
			mask := simulate.DetectStuckAt(single, f, p)
			wantCount := simulate.CountBits(mask)
			gotCount := int(e.Manager().SatCount(res.PerPO[i]).Int64())
			if gotCount != wantCount {
				t.Fatalf("%v PO %d: DP %d tests, exhaustive %d", f.Describe(w), i, gotCount, wantCount)
			}
		}
	}
}

func TestObservedPOsSubsetOfPOsFed(t *testing.T) {
	for _, name := range []string{"c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			res := e.StuckAt(f)
			fed := w.POsFed(f.Net)
			fedSet := map[int]bool{}
			for _, po := range fed {
				fedSet[po] = true
			}
			for _, po := range res.ObservedPOs {
				if !fedSet[po] {
					t.Fatalf("%s %v observable at PO %d outside its fan-out cone", name, f.Describe(w), po)
				}
			}
			if res.Detectable() != (len(res.ObservedPOs) > 0) {
				t.Fatal("Detectable inconsistent with ObservedPOs")
			}
		}
	}
}

// --- Syndromes, bounds, adherence ---------------------------------------

func TestSyndromeMatchesSimulation(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	vals := simulate.GoodValues(w, p)
	for net := 0; net < w.NumNets(); net++ {
		want := float64(simulate.CountBits(vals[net])) / float64(p.Count)
		got := e.Syndrome(net)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("net %s syndrome DP=%v sim=%v", w.NetName(net), got, want)
		}
		// Cached second read must agree.
		if e.Syndrome(net) != got {
			t.Fatal("syndrome cache broken")
		}
	}
}

func TestUpperBoundsHold(t *testing.T) {
	for _, name := range []string{"c17", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			res := e.StuckAt(f)
			ub := e.StuckAtUpperBound(f)
			if res.Detectability > ub+1e-12 {
				t.Fatalf("%s %v: detectability %v exceeds syndrome bound %v",
					name, f.Describe(w), res.Detectability, ub)
			}
			if a, ok := Adherence(res.Detectability, ub); ok && (a < 0 || a > 1) {
				t.Fatalf("adherence %v out of range", a)
			}
		}
		for _, b := range faults.AllNFBFs(w, faults.WiredAND)[:10] {
			res := e.Bridging(b)
			ub := e.BridgingUpperBound(b)
			if res.Detectability > ub+1e-12 {
				t.Fatalf("%s %v: detectability %v exceeds excitation bound %v",
					name, b.Describe(w), res.Detectability, ub)
			}
		}
	}
}

func TestPOFaultAdherenceIsOne(t *testing.T) {
	// §4.1: "PO faults always have adherence values of one" — every
	// excitation of a fault on a primary output is immediately a test.
	e := newEngine(t, "alu181")
	w := e.Circuit
	for _, o := range w.Outputs {
		for _, stuck := range []bool{false, true} {
			f := faults.StuckAt{Net: o, Gate: -1, Pin: -1, Stuck: stuck}
			res := e.StuckAt(f)
			ub := e.StuckAtUpperBound(f)
			a, ok := Adherence(res.Detectability, ub)
			if !ok {
				continue // constant output line cannot be excited
			}
			if math.Abs(a-1) > 1e-12 {
				t.Fatalf("PO fault %v adherence = %v, want 1", f.Describe(w), a)
			}
		}
	}
}

func TestAdherenceEdgeCases(t *testing.T) {
	if _, ok := Adherence(0, 0); ok {
		t.Fatal("zero bound must report not-ok")
	}
	if a, ok := Adherence(0.25, 0.5); !ok || a != 0.5 {
		t.Fatal("adherence arithmetic wrong")
	}
	if a, _ := Adherence(0.5000000001, 0.5); a != 1 {
		t.Fatal("rounding guard failed")
	}
}

// --- Figure 5 classification --------------------------------------------

func TestBridgeActsStuckAt(t *testing.T) {
	// Build a circuit where two nets are disjoint (AND bridge is a double
	// SA0) and two nets cover the space (OR bridge is a double SA1).
	c := netlist.New("sa-bridges")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate("x", netlist.And, a, b)   // ab
	y := c.AddGate("y", netlist.Nor, a, b)   // ¬a¬b : disjoint from ab
	u := c.AddGate("u", netlist.Or, a, b)    // a+b
	v := c.AddGate("v", netlist.Nand, a, b)  // ¬(ab) : u|v tautology
	z1 := c.AddGate("z1", netlist.Xor, x, y) // consume everything
	z2 := c.AddGate("z2", netlist.Xor, u, v)
	z3 := c.AddGate("z3", netlist.And, z1, z2)
	c.MarkOutput(z3)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	n := func(s string) int { return w.NetByName(s) }
	// x∧y ≡ 0: wired-AND bridge behaves as both wires stuck-at-0.
	if !e.BridgeActsStuckAt(faults.Bridging{U: n("x"), V: n("y"), Kind: faults.WiredAND}) {
		t.Fatal("disjoint wires: AND bridge must classify as stuck-at")
	}
	// u∨v ≡ 1: wired-OR bridge behaves as both wires stuck-at-1.
	if !e.BridgeActsStuckAt(faults.Bridging{U: n("u"), V: n("v"), Kind: faults.WiredOR}) {
		t.Fatal("covering wires: OR bridge must classify as stuck-at")
	}
	// Generic pairs are not stuck-at-like.
	if e.BridgeActsStuckAt(faults.Bridging{U: n("a"), V: n("b"), Kind: faults.WiredAND}) {
		t.Fatal("a∧b is not constant")
	}
	if e.BridgeActsStuckAt(faults.Bridging{U: n("a"), V: n("b"), Kind: faults.WiredOR}) {
		t.Fatal("a∨b is not constant")
	}
}

func TestBridgeActsStuckAtMatchesBruteForce(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	vals := simulate.GoodValues(w, p)
	rng := rand.New(rand.NewSource(79))
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		all := faults.AllNFBFs(w, kind)
		for trial := 0; trial < 60; trial++ {
			b := all[rng.Intn(len(all))]
			// Brute force: is the wired function constant?
			count := 0
			for wd := range vals[b.U] {
				var x uint64
				if kind == faults.WiredAND {
					x = vals[b.U][wd] & vals[b.V][wd]
				} else {
					x = vals[b.U][wd] | vals[b.V][wd]
				}
				count += simulate.CountBits([]uint64{x})
			}
			want := count == 0 || count == p.Count
			if got := e.BridgeActsStuckAt(b); got != want {
				t.Fatalf("%v: classify=%v, brute force=%v", b.Describe(w), got, want)
			}
		}
	}
}

// --- Engine mechanics ----------------------------------------------------

func TestCompactionPreservesExactness(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, &Options{RebuildLimit: 2000}) // force frequent rebuilds
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	for _, f := range faults.CheckpointStuckAts(w) {
		got := e.StuckAt(f).Detectability
		want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v after compaction: DP=%v exhaustive=%v", f.Describe(w), got, want)
		}
	}
	if e.Rebuilds() == 0 {
		t.Fatal("rebuild limit of 2000 nodes must trigger compaction on c95s")
	}
}

func TestCustomOrderGivesSameResults(t *testing.T) {
	c := circuits.MustGet("alu181")
	e1 := newEngine(t, "alu181")
	rev := e1.Circuit.InputNames()
	sort.Sort(sort.Reverse(sort.StringSlice(rev)))
	e2, err := New(c, &Options{Order: rev})
	if err != nil {
		t.Fatal(err)
	}
	w := e1.Circuit
	for _, f := range faults.CheckpointStuckAts(w)[:20] {
		d1 := e1.StuckAt(f).Detectability
		d2 := e2.StuckAt(f).Detectability
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("%v: order changed detectability %v vs %v", f.Describe(w), d1, d2)
		}
	}
}

func TestDFSOrderIsPermutation(t *testing.T) {
	for _, name := range []string{"c17", "alu181", "c432s", "c499s"} {
		c := circuits.MustGet(name)
		order := DFSOrder(c)
		if len(order) != len(c.Inputs) {
			t.Fatalf("%s: DFS order has %d names, want %d", name, len(order), len(c.Inputs))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: duplicate %q in DFS order", name, n)
			}
			seen[n] = true
			if c.NetByName(n) < 0 || !c.IsInput(c.NetByName(n)) {
				t.Fatalf("%s: %q is not an input", name, n)
			}
		}
	}
}

func TestDFSOrderUsableByEngine(t *testing.T) {
	c := circuits.MustGet("c499s")
	e, err := New(c, &Options{Order: DFSOrder(c.Decompose2())})
	if err != nil {
		t.Fatal(err)
	}
	// Spot check one fault end to end.
	f := faults.CheckpointStuckAts(e.Circuit)[0]
	res := e.StuckAt(f)
	if !res.Detectable() {
		t.Fatal("first checkpoint fault of c499s must be detectable")
	}
}

func TestMinimalTestCube(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	m := e.Manager()
	for _, f := range faults.CheckpointStuckAts(w)[:40] {
		res := e.StuckAt(f)
		cube := e.MinimalTestCube(res)
		if !res.Detectable() {
			if cube != nil {
				t.Fatal("undetectable fault must yield nil cube")
			}
			continue
		}
		// Every completion of the cube is a test: cube → Complete.
		cubeF := bdd.True
		spec := 0
		for v, s := range cube {
			switch s {
			case 0:
				cubeF = m.And(cubeF, m.NVar(v))
				spec++
			case 1:
				cubeF = m.And(cubeF, m.Var(v))
				spec++
			}
		}
		if m.And(cubeF, m.Not(res.Complete)) != bdd.False {
			t.Fatalf("%v: minimal cube is not contained in the test set", f.Describe(w))
		}
		// Local minimality: no remaining literal can be dropped.
		for v, s := range cube {
			if s < 0 {
				continue
			}
			wide := append([]int8(nil), cube...)
			wide[v] = -1
			wf := bdd.True
			for vv, ss := range wide {
				switch ss {
				case 0:
					wf = m.And(wf, m.NVar(vv))
				case 1:
					wf = m.And(wf, m.Var(vv))
				}
			}
			if m.And(wf, m.Not(res.Complete)) == bdd.False {
				t.Fatalf("%v: literal on %s still droppable", f.Describe(w), m.VarName(v))
			}
		}
		// Sanity: a cube from a path can only get wider.
		if spec > len(w.Inputs) {
			t.Fatal("cube wider than the input space")
		}
	}
	// Redundant fault path.
	c := netlist.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ab := c.AddGate("ab", netlist.And, a, b)
	z := c.AddGate("z", netlist.Or, a, ab)
	c.MarkOutput(z)
	er, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := er.StuckAt(faults.StuckAt{Net: er.Circuit.NetByName("ab"), Gate: -1, Pin: -1, Stuck: false})
	if er.MinimalTestCube(res) != nil {
		t.Fatal("redundant fault must yield nil cube")
	}
}

func TestFactoredStuckAtMatchesDifferencePropagation(t *testing.T) {
	// The CATAPULT-style factored form (excitation ∧ observability) must
	// produce the identical complete test set BDD as direct difference
	// propagation — the two methods the paper contrasts in §3 — at every
	// checkpoint site, branches included. Primary-input sites are also
	// checked through StuckAtPI, which campaigns run.
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		m := e.Manager()
		for _, f := range faults.CheckpointStuckAts(w) {
			direct := e.StuckAt(f).Complete
			var obs bdd.Ref
			if f.IsBranch() {
				obs = e.PinObservability(f.Gate, f.Pin)
			} else {
				obs = e.Observability(f.Net)
			}
			exc := e.Good(f.Net)
			if f.Stuck {
				exc = m.Not(exc)
			}
			if m.And(exc, obs) != direct {
				t.Fatalf("%s %v: factored and direct test sets differ", name, f.Describe(w))
			}
			if !f.IsBranch() && w.Gates[f.Net].Type == netlist.Input {
				if e.StuckAtPI(f.Net, []bool{f.Stuck})[0].Complete != e.StuckAt(f).Complete {
					t.Fatalf("%s %v: StuckAtPI and direct test sets differ", name, f.Describe(w))
				}
			}
		}
	}
}

func TestObservabilityProperties(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	m := e.Manager()
	// A PO net is always observable.
	for _, o := range w.Outputs {
		if e.Observability(o) != bdd.True {
			t.Fatalf("PO %s must be observable everywhere", w.NetName(o))
		}
	}
	// The SA0 and SA1 test sets of a net partition its observability:
	// T(SA0) ∪ T(SA1) = Obs and T(SA0) ∩ T(SA1) = ∅.
	for net := 0; net < w.NumNets(); net++ {
		t0 := e.StuckAt(faults.StuckAt{Net: net, Gate: -1, Pin: -1, Stuck: false}).Complete
		t1 := e.StuckAt(faults.StuckAt{Net: net, Gate: -1, Pin: -1, Stuck: true}).Complete
		obs := e.Observability(net)
		if m.Or(t0, t1) != obs {
			t.Fatalf("net %s: SA0 ∪ SA1 tests != observability", w.NetName(net))
		}
		if m.And(t0, t1) != bdd.False {
			t.Fatalf("net %s: SA0 and SA1 tests overlap", w.NetName(net))
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	bad := netlist.New("bad")
	if _, err := New(bad, nil); err == nil {
		t.Fatal("invalid circuit must be rejected")
	}
	c := circuits.MustGet("c17")
	if _, err := New(c, &Options{Order: []string{"1", "2"}}); err == nil {
		t.Fatal("short order must be rejected")
	}
	if _, err := New(c, &Options{Order: []string{"1", "2", "3", "6", "zz"}}); err == nil {
		t.Fatal("unknown input name must be rejected")
	}
}

func TestBridgingRejectsFeedback(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	defer func() {
		if recover() == nil {
			t.Fatal("feedback bridge must panic")
		}
	}()
	e.Bridging(faults.Bridging{U: w.NetByName("11"), V: w.NetByName("16"), Kind: faults.WiredAND})
}

func TestRedundantFaultHasEmptyTestSet(t *testing.T) {
	// z = a OR (a AND b) == a: the AND output SA0 is redundant; DP must
	// prove it with an identically-false complete test set.
	c := netlist.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ab := c.AddGate("ab", netlist.And, a, b)
	z := c.AddGate("z", netlist.Or, a, ab)
	c.MarkOutput(z)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	res := e.StuckAt(faults.StuckAt{Net: w.NetByName("ab"), Gate: -1, Pin: -1, Stuck: false})
	if res.Detectable() || res.Detectability != 0 || len(res.ObservedPOs) != 0 {
		t.Fatal("redundant fault must have an empty complete test set")
	}
}

func TestCompleteTestSetIsExactlyTheTests(t *testing.T) {
	// Every minterm of Complete must detect the fault; every pattern
	// outside must not. Verified exhaustively on the full adder.
	e := newEngine(t, "fadd")
	w := e.Circuit
	for _, f := range faults.AllStuckAts(w) {
		res := e.StuckAt(f)
		mask := simulate.DetectStuckAt(w, f, simulate.Exhaustive(len(w.Inputs)))
		for idx := 0; idx < 1<<len(w.Inputs); idx++ {
			in := make([]bool, len(w.Inputs))
			for j := range in {
				in[j] = idx>>j&1 == 1
			}
			inDP := e.Manager().Eval(res.Complete, e.Assignment(in))
			inSim := mask[idx/64]>>uint(idx%64)&1 == 1
			if inDP != inSim {
				t.Fatalf("%v pattern %03b: DP says %v, simulation says %v", f.Describe(w), idx, inDP, inSim)
			}
		}
	}
}
