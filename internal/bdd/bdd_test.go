package bdd

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// evalAll evaluates f on every assignment over n variables and returns the
// truth table as a bit slice; the assignment index i sets variable v to
// bit v of i.
func evalAll(m *Manager, f Ref, n int) []bool {
	out := make([]bool, 1<<n)
	a := make([]bool, m.NumVars())
	for i := range out {
		for v := 0; v < n; v++ {
			a[v] = i>>(uint(v))&1 == 1
		}
		out[i] = m.Eval(f, a)
	}
	return out
}

func TestTerminals(t *testing.T) {
	m := NewAnon(3)
	if m.Eval(True, []bool{false, false, false}) != true {
		t.Fatal("True must evaluate to true")
	}
	if m.Eval(False, []bool{true, true, true}) != false {
		t.Fatal("False must evaluate to false")
	}
	if !IsConst(True) || !IsConst(False) || IsConst(m.Var(0)) {
		t.Fatal("IsConst misclassifies")
	}
}

func TestVarAndNVar(t *testing.T) {
	m := New("a", "b")
	a := m.Var(0)
	na := m.NVar(0)
	if m.Not(a) != na {
		t.Fatalf("NVar(0) != Not(Var(0))")
	}
	if m.VarNamed("b") != m.Var(1) {
		t.Fatalf("VarNamed mismatch")
	}
	if m.VarIndex("a") != 0 || m.VarIndex("zz") != -1 {
		t.Fatalf("VarIndex wrong")
	}
}

func TestBasicOps(t *testing.T) {
	m := New("a", "b", "c")
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	cases := []struct {
		name string
		f    Ref
		want func(a, b, c bool) bool
	}{
		{"and", m.And(a, b), func(a, b, c bool) bool { return a && b }},
		{"or", m.Or(a, b), func(a, b, c bool) bool { return a || b }},
		{"xor", m.Xor(a, b), func(a, b, c bool) bool { return a != b }},
		{"nand", m.Nand(a, b), func(a, b, c bool) bool { return !(a && b) }},
		{"nor", m.Nor(a, b), func(a, b, c bool) bool { return !(a || b) }},
		{"xnor", m.Xnor(a, b), func(a, b, c bool) bool { return a == b }},
		{"not", m.Not(a), func(a, b, c bool) bool { return !a }},
		{"diff", m.Diff(a, b), func(a, b, c bool) bool { return a && !b }},
		{"ite", m.Ite(a, b, c), func(a, b, c bool) bool {
			if a {
				return b
			}
			return c
		}},
		{"maj", m.Or(m.Or(m.And(a, b), m.And(a, c)), m.And(b, c)),
			func(a, b, c bool) bool { return (a && b) || (a && c) || (b && c) }},
	}
	for _, tc := range cases {
		for i := 0; i < 8; i++ {
			av, bv, cv := i&1 == 1, i&2 == 2, i&4 == 4
			got := m.Eval(tc.f, []bool{av, bv, cv})
			if got != tc.want(av, bv, cv) {
				t.Errorf("%s(%v,%v,%v) = %v", tc.name, av, bv, cv, got)
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := New("a", "b", "c")
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// Two syntactically different constructions of the same function must
	// yield the identical Ref (hash consing + reduction = canonical form).
	f1 := m.Or(m.And(a, b), m.And(a, c))
	f2 := m.And(a, m.Or(b, c))
	if f1 != f2 {
		t.Fatalf("canonicity violated: a(b+c) built two ways gives %d and %d", f1, f2)
	}
	// De Morgan.
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Fatal("De Morgan violated")
	}
	// Double negation is identity.
	if m.Not(m.Not(f1)) != f1 {
		t.Fatal("double negation not identity")
	}
	// XOR expressed via AND/OR.
	if m.Xor(a, b) != m.Or(m.And(a, m.Not(b)), m.And(m.Not(a), b)) {
		t.Fatal("xor != canonical and/or form")
	}
}

// TestRestrict checks the cofactor oracle the BooleanDiff and SatCount
// properties compare against.
func TestRestrict(t *testing.T) {
	m := New("a", "b", "c")
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c)
	if restrict(m, f, 0, true) != m.Or(b, c) {
		t.Fatal("f|a=1 != b+c")
	}
	if restrict(m, f, 0, false) != c {
		t.Fatal("f|a=0 != c")
	}
	if restrict(m, f, 2, true) != True {
		t.Fatal("f|c=1 != true")
	}
	if restrict(m, f, 2, false) != m.And(a, b) {
		t.Fatal("f|c=0 != ab")
	}
	// Restricting a variable outside the support is identity.
	g := m.And(a, b)
	if restrict(m, g, 2, true) != g {
		t.Fatal("restrict outside support not identity")
	}
}

func TestSatCount(t *testing.T) {
	m := New("a", "b", "c", "d")
	a, b := m.Var(0), m.Var(1)
	cases := []struct {
		f    Ref
		want int64
	}{
		{False, 0},
		{True, 16},
		{a, 8},
		{m.And(a, b), 4},
		{m.Or(a, b), 12},
		{m.Xor(a, b), 8},
		{m.And(m.And(a, b), m.And(m.Var(2), m.Var(3))), 1},
	}
	for i, tc := range cases {
		if got := m.SatCount(tc.f); got.Cmp(big.NewInt(tc.want)) != 0 {
			t.Errorf("case %d: SatCount = %v, want %d", i, got, tc.want)
		}
	}
	if f := m.SatFrac(m.Or(a, b)); f != 0.75 {
		t.Errorf("SatFrac = %v, want 0.75", f)
	}
}

func TestSatCountMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewAnon(6)
	for trial := 0; trial < 50; trial++ {
		f := randomFunc(m, rng, 6, 12)
		tt := evalAll(m, f, 6)
		n := int64(0)
		for _, v := range tt {
			if v {
				n++
			}
		}
		if got := m.SatCount(f); got.Cmp(big.NewInt(n)) != 0 {
			t.Fatalf("trial %d: SatCount = %v, exhaustive = %d", trial, got, n)
		}
	}
}

// randomFunc builds a random function over n variables with the given
// number of random binary operations.
func randomFunc(m *Manager, rng *rand.Rand, n, ops int) Ref {
	pool := make([]Ref, 0, n+ops)
	for i := 0; i < n; i++ {
		pool = append(pool, m.Var(i))
	}
	for i := 0; i < ops; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		var f Ref
		switch rng.Intn(4) {
		case 0:
			f = m.And(a, b)
		case 1:
			f = m.Or(a, b)
		case 2:
			f = m.Xor(a, b)
		default:
			f = m.Not(a)
		}
		pool = append(pool, f)
	}
	return pool[len(pool)-1]
}

func TestAnySat(t *testing.T) {
	m := NewAnon(5)
	if m.AnySat(False) != nil {
		t.Fatal("AnySat(False) must be nil")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		f := randomFunc(m, rng, 5, 10)
		if f == False {
			continue
		}
		cube := m.AnySat(f)
		a := make([]bool, 5)
		for v, s := range cube {
			a[v] = s == 1
		}
		if !m.Eval(f, a) {
			t.Fatalf("AnySat returned non-satisfying cube %v", cube)
		}
	}
}

func TestAllSatCoversExactly(t *testing.T) {
	m := NewAnon(5)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		f := randomFunc(m, rng, 5, 10)
		covered := make([]bool, 32)
		m.AllSat(f, func(cube []int8) bool {
			// Expand cube over don't-cares.
			free := []int{}
			base := 0
			for v, s := range cube {
				switch s {
				case 1:
					base |= 1 << v
				case -1:
					free = append(free, v)
				}
			}
			for mask := 0; mask < 1<<len(free); mask++ {
				idx := base
				for j, v := range free {
					if mask>>j&1 == 1 {
						idx |= 1 << v
					}
				}
				if covered[idx] {
					t.Fatalf("AllSat cubes overlap at %05b", idx)
				}
				covered[idx] = true
			}
			return true
		})
		tt := evalAll(m, f, 5)
		for i, want := range tt {
			if covered[i] != want {
				t.Fatalf("trial %d: coverage mismatch at %05b: got %v want %v", trial, i, covered[i], want)
			}
		}
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := NewAnon(4)
	f := m.Or(m.Var(0), m.Var(1))
	calls := 0
	m.AllSat(f, func([]int8) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("AllSat did not stop early: %d calls", calls)
	}
}

// TestSupport checks the support oracle TestSupportRowsMatchesSupport
// compares against.
func TestSupport(t *testing.T) {
	m := NewAnon(5)
	f := m.And(m.Var(1), m.Xor(m.Var(3), m.Var(4)))
	got := support(m, f)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support = %v, want %v", got, want)
		}
	}
	if len(support(m, True)) != 0 || len(support(m, False)) != 0 {
		t.Fatal("constants must have empty support")
	}
	// A function that cancels a variable must not list it.
	g := m.Xor(m.Var(0), m.Var(0))
	if len(support(m, g)) != 0 {
		t.Fatal("x xor x must have empty support")
	}
}

func TestTransferSameOrder(t *testing.T) {
	m := New("a", "b", "c")
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	g := m.Xor(m.Var(0), m.Var(2))
	dst := New("a", "b", "c")
	out := m.Transfer(dst, f, g)
	for i := 0; i < 8; i++ {
		a := []bool{i&1 == 1, i&2 == 2, i&4 == 4}
		if m.Eval(f, a) != dst.Eval(out[0], a) || m.Eval(g, a) != dst.Eval(out[1], a) {
			t.Fatalf("transfer changed function at %03b", i)
		}
	}
}

func TestTransferDifferentOrder(t *testing.T) {
	m := New("a", "b", "c")
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	dst := New("c", "a", "b")
	out := m.Transfer(dst, f)
	for i := 0; i < 8; i++ {
		av, bv, cv := i&1 == 1, i&2 == 2, i&4 == 4
		if m.Eval(f, []bool{av, bv, cv}) != dst.Eval(out[0], []bool{cv, av, bv}) {
			t.Fatalf("reordered transfer changed function at %03b", i)
		}
	}
}

// TestSize checks TotalSize of a single root.
func TestSize(t *testing.T) {
	m := NewAnon(3)
	if m.TotalSize(True) != 1 || m.TotalSize(False) != 1 {
		t.Fatal("terminal size must be 1")
	}
	// x0 has one decision node + the shared terminal.
	if m.TotalSize(m.Var(0)) != 2 {
		t.Fatalf("TotalSize(x0) = %d, want 2", m.TotalSize(m.Var(0)))
	}
	// Odd parity over 3 vars: with complement edges both polarities of each
	// level share one node, so parity needs n decision nodes + the terminal.
	p := m.Xor(m.Xor(m.Var(0), m.Var(1)), m.Var(2))
	if m.TotalSize(p) != 3+1 || m.TotalSize(m.Not(p)) != 3+1 {
		t.Fatalf("parity size = %d, want %d", m.TotalSize(p), 3+1)
	}
}

// TestRebuildDropsGarbage checks the rebuild Sift starts from: the
// manager it returns holds the kept function and none of the garbage.
func TestRebuildDropsGarbage(t *testing.T) {
	m := NewAnon(8)
	rng := rand.New(rand.NewSource(3))
	var keep Ref
	for i := 0; i < 40; i++ {
		f := randomFunc(m, rng, 8, 30)
		if i == 0 {
			keep = f
		}
	}
	before := m.NodeCount()
	m2, roots, _ := m.Sift([]Ref{keep}, 1)
	if m2.NodeCount() >= before {
		t.Fatalf("rebuild did not shrink: %d -> %d", before, m2.NodeCount())
	}
	for i := 0; i < 256; i++ {
		a := make([]bool, 8)
		for v := 0; v < 8; v++ {
			a[v] = i>>(uint(v))&1 == 1
		}
		a2 := make([]bool, 8)
		for v := range a2 {
			a2[v] = a[m.VarIndex(m2.VarName(v))]
		}
		if m.Eval(keep, a) != m2.Eval(roots[0], a2) {
			t.Fatal("rebuild changed kept function")
		}
	}
}

func TestTotalSize(t *testing.T) {
	m := NewAnon(4)
	f := m.And(m.Var(0), m.Var(1))
	g := m.And(m.Var(0), m.Var(1)) // same ref
	if m.TotalSize(f, g) != m.TotalSize(f) {
		t.Fatal("shared roots must not double count")
	}
	h := m.Xor(m.Var(2), m.Var(3))
	if m.TotalSize(f, h) >= m.TotalSize(f)+m.TotalSize(h) {
		t.Fatal("terminals must be shared in TotalSize")
	}
}

// Property: for random 8-variable functions built two different ways from
// the same truth table, the Refs are identical (canonical form).
func TestQuickCanonicalFromTruthTable(t *testing.T) {
	m := NewAnon(4)
	build := func(tt uint16, reverse bool) Ref {
		f := False
		order := make([]int, 16)
		for i := range order {
			if reverse {
				order[i] = 15 - i
			} else {
				order[i] = i
			}
		}
		for _, i := range order {
			if tt>>uint(i)&1 == 0 {
				continue
			}
			term := True
			for v := 0; v < 4; v++ {
				if i>>uint(v)&1 == 1 {
					term = m.And(term, m.Var(v))
				} else {
					term = m.And(term, m.NVar(v))
				}
			}
			f = m.Or(f, term)
		}
		return f
	}
	err := quick.Check(func(tt uint16) bool {
		return build(tt, false) == build(tt, true)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: SatCount of a function built from a random 16-entry truth table
// equals the table's popcount scaled to the full space.
func TestQuickSatCountFromTruthTable(t *testing.T) {
	m := NewAnon(4)
	err := quick.Check(func(tt uint16) bool {
		f := False
		for i := 0; i < 16; i++ {
			if tt>>uint(i)&1 == 0 {
				continue
			}
			term := True
			for v := 0; v < 4; v++ {
				if i>>uint(v)&1 == 1 {
					term = m.And(term, m.Var(v))
				} else {
					term = m.And(term, m.NVar(v))
				}
			}
			f = m.Or(f, term)
		}
		pop := 0
		for i := 0; i < 16; i++ {
			if tt>>uint(i)&1 == 1 {
				pop++
			}
		}
		return m.SatCount(f).Cmp(big.NewInt(int64(pop))) == 0
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: boolean algebra laws hold on randomly built functions.
func TestQuickAlgebraicLaws(t *testing.T) {
	m := NewAnon(6)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		f := randomFunc(m, rng, 6, 8)
		g := randomFunc(m, rng, 6, 8)
		h := randomFunc(m, rng, 6, 8)
		if m.And(f, g) != m.And(g, f) {
			t.Fatal("AND not commutative")
		}
		if m.Or(f, m.Or(g, h)) != m.Or(m.Or(f, g), h) {
			t.Fatal("OR not associative")
		}
		if m.And(f, m.Or(g, h)) != m.Or(m.And(f, g), m.And(f, h)) {
			t.Fatal("distribution fails")
		}
		if m.Xor(f, g) != m.Xor(g, f) {
			t.Fatal("XOR not commutative")
		}
		if m.Xor(f, f) != False {
			t.Fatal("f xor f != 0")
		}
		if m.Ite(f, g, h) != m.Or(m.And(f, g), m.And(m.Not(f), h)) {
			t.Fatal("ITE inconsistent with AND/OR form")
		}
		if m.Not(m.Xor(f, g)) != m.Xnor(f, g) {
			t.Fatal("XNOR inconsistent")
		}
		// Shannon expansion around variable 0.
		x := m.Var(0)
		if m.Ite(x, restrict(m, f, 0, true), restrict(m, f, 0, false)) != f {
			t.Fatal("Shannon expansion fails")
		}
	}
}

func TestTinyCachesPreserveCorrectness(t *testing.T) {
	// Direct-mapped caches may thrash at tiny sizes; results must stay
	// canonical regardless.
	m := NewAnon(8)
	m.setCacheBits(2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		f := randomFunc(m, rng, 8, 40)
		g := m.Not(m.Not(f))
		if f != g {
			t.Fatal("tiny caches broke canonicity")
		}
		h := m.Xor(f, g)
		if h != False {
			t.Fatal("f xor f must be False under cache thrash")
		}
	}
}

func TestCacheGrowthDuringApply(t *testing.T) {
	// Build something large enough to force several unique-table growths
	// (which resize the operation caches mid-apply) and verify canonicity.
	m := NewAnon(16)
	var odd Ref = False
	for i := 0; i < 16; i++ {
		odd = m.Xor(odd, m.Var(i))
	}
	var odd2 Ref = False
	for i := 15; i >= 0; i-- {
		odd2 = m.Xor(m.Var(i), odd2)
	}
	if odd != odd2 {
		t.Fatal("parity built in two directions must be identical")
	}
	if m.TotalSize(odd) != 16+1 {
		t.Fatalf("parity BDD size %d", m.TotalSize(odd))
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	m := New("a", "b")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Var out of range", func() { m.Var(5) })
	mustPanic("NVar out of range", func() { m.NVar(-1) })
	mustPanic("VarNamed unknown", func() { m.VarNamed("zzz") })
	mustPanic("duplicate names", func() { New("a", "a") })
	mustPanic("empty name", func() { New("") })
	mustPanic("Eval bad width", func() { m.Eval(True, []bool{true}) })
	mustPanic("Transfer missing var", func() { m.Transfer(New("a"), m.Var(1)) })
}

func TestStringer(t *testing.T) {
	m := New("a")
	if m.String(True) != "true" || m.String(False) != "false" {
		t.Fatal("terminal strings wrong")
	}
	if s := m.String(m.Var(0)); s == "" {
		t.Fatal("empty node string")
	}
}

func TestAccessors(t *testing.T) {
	m := New("p", "q")
	f := m.And(m.Var(0), m.Var(1))
	if m.Level(f) != 0 || m.Level(True) != -1 {
		t.Fatal("Level wrong")
	}
	if m.Low(f) != False {
		t.Fatal("Low of p∧q at p=0 must be False")
	}
	if m.High(f) != m.Var(1) {
		t.Fatal("High of p∧q at p=1 must be q")
	}
	if m.VarName(1) != "q" || m.NumVars() != 2 {
		t.Fatal("names wrong")
	}
	names := m.Names()
	names[0] = "mutated"
	if m.VarName(0) != "p" {
		t.Fatal("Names must return a copy")
	}
}

func TestNewAnonNames(t *testing.T) {
	m := NewAnon(3)
	if m.VarName(0) != "x0" || m.VarName(2) != "x2" {
		t.Fatal("anonymous names wrong")
	}
}

func TestDOT(t *testing.T) {
	m := New("a", "b")
	f := m.And(m.Var(0), m.Var(1))
	g := m.Xor(m.Var(0), m.Var(1))
	dot := m.DOT("pair", f, g)
	for _, want := range []string{"digraph", "rank=same", "style=dashed", `label="a"`, `label="b"`, "root0", "root1", "f0 [", "f1 ["} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Terminals only:
	dot = m.DOT("consts", True, False)
	if !strings.Contains(dot, "root1 -> f0") || !strings.Contains(dot, "root0 -> f1") {
		t.Fatalf("terminal roots wrong:\n%s", dot)
	}
}

// Property: Shannon decomposition of the satisfying-set count.
func TestQuickSatCountShannon(t *testing.T) {
	m := NewAnon(7)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		f := randomFunc(m, rng, 7, 14)
		v := rng.Intn(7)
		lo := m.SatCount(restrict(m, f, v, false))
		hi := m.SatCount(restrict(m, f, v, true))
		// Each cofactor count is over all 7 vars; halve to remove the
		// restricted variable's freedom.
		sum := new(big.Int).Add(lo, hi)
		sum.Rsh(sum, 1)
		if m.SatCount(f).Cmp(sum) != 0 {
			t.Fatalf("Shannon count fails: |f|=%v, (|f0|+|f1|)/2=%v", m.SatCount(f), sum)
		}
	}
}
