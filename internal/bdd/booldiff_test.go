package bdd

import (
	"math/rand"
	"sort"
	"testing"
)

// restrict returns the cofactor f|v=val of f at order position v. It
// memoizes per node id: restriction commutes with complement, so one
// entry serves both polarities.
func restrict(m *Manager, f Ref, v int, val bool) Ref {
	memo := map[int32]Ref{}
	var rec func(Ref) Ref
	rec = func(f Ref) Ref {
		id := int32(f) >> 1
		n := m.t.node(id)
		if n.level > int32(v) {
			// Terminals have terminalLevel, so this also covers constants.
			return f
		}
		c := f & 1
		if r, ok := memo[id]; ok {
			return r ^ c
		}
		var r Ref
		switch {
		case n.level < int32(v):
			r = m.mk(n.level, rec(n.low), rec(n.high))
		case val:
			r = n.high
		default:
			r = n.low
		}
		memo[id] = r
		return r ^ c
	}
	return rec(f)
}

// boolDiffOracle is the definition BooleanDiff computes: the XOR of the
// two cofactors.
func boolDiffOracle(m *Manager, f Ref, v int) Ref {
	return m.Xor(restrict(m, f, v, false), restrict(m, f, v, true))
}

// shiftVars renames every variable i of f to variable i+by.
func shiftVars(m *Manager, f Ref, by int) Ref {
	if IsConst(f) {
		return f
	}
	return m.Ite(m.Var(m.Level(f)+by), shiftVars(m, m.High(f), by), shiftVars(m, m.Low(f), by))
}

// TestBooleanDiffMatchesRestrictXor checks the recursion against the
// cofactor definition for random functions over subsets of the
// variables, both polarities and both terminals, at every variable: one
// above the root, the root's own, and ones below it.
func TestBooleanDiffMatchesRestrictXor(t *testing.T) {
	m := NewAnon(10)
	rng := rand.New(rand.NewSource(5))
	pool := []Ref{False, True}
	for i := 0; i < 40; i++ {
		// Functions over a random window of the order, so roots sit at
		// varied levels and some variables lie above every root.
		lo := rng.Intn(6)
		f := randomFunc(m, rng, 4, 25)
		pool = append(pool, shiftVars(m, f, lo))
	}
	var above, at, below int
	for _, f := range pool {
		for _, g := range []Ref{f, f ^ 1} {
			for v := 0; v < m.NumVars(); v++ {
				switch l := m.Level(g); {
				case l < 0 || l > v:
					above++
				case l == v:
					at++
				default:
					below++
				}
				if got, want := m.BooleanDiff(g, v), boolDiffOracle(m, g, v); got != want {
					t.Fatalf("BooleanDiff(%v, %d) = %v, cofactor XOR = %v", g, v, got, want)
				}
			}
		}
	}
	if above == 0 || at == 0 || below == 0 {
		t.Fatalf("cases above/at/below the root: %d/%d/%d; want all three", above, at, below)
	}
}

// TestBooleanDiffAbortKeepsTableConsistent aborts the recursion midway
// with the op budget and then the node watermark: the unique table must
// stay canonical, and after recovery (disarm, collect in place) the
// result must equal an unaborted twin's.
func TestBooleanDiffAbortKeepsTableConsistent(t *testing.T) {
	build := func() (*Manager, Ref) {
		m := NewAnon(16)
		return m, buildHeavy(m, 40)
	}
	const v = 13
	twin, tf := build()
	base := twin.NodeCount()
	twin.SetBudget(0)
	want := twin.BooleanDiff(tf, v)
	ops, grown := twin.OpsCharged(), twin.NodeCount()-base
	if ops < 20 || grown < 4 {
		t.Fatalf("reference BooleanDiff charged %d ops and built %d nodes; too small to abort midway", ops, grown)
	}
	for _, a := range []struct {
		name string
		arm  func(m *Manager)
	}{
		{"budget", func(m *Manager) { m.SetBudget(ops / 2) }},
		{"nodelimit", func(m *Manager) { m.SetNodeLimit(m.NodeCount() + grown/2) }},
	} {
		t.Run(a.name, func(t *testing.T) {
			m, f := build()
			a.arm(m)
			if err := recoverSentinel(t, func() { m.BooleanDiff(f, v) }); err == nil {
				t.Fatal("the armed bound did not abort BooleanDiff")
			}
			checkCanonical(t, m)
			m.ClearBudget()
			m.SetNodeLimit(0)
			roots, _ := m.GC([]Ref{f})
			checkCanonical(t, m)
			if got := m.BooleanDiff(roots[0], v); !equalFunctions(m, got, twin, want) {
				t.Fatal("retry after recovery differs from the unaborted result")
			}
		})
	}
}

// TestMixedCacheTrafficTinyCache interleaves ITE, DiffAnd and BooleanDiff
// calls on a cache of a few entries, so the three key kinds keep evicting
// and overwriting each other's slots; every result must still match its
// oracle (truth tables for ITE and BooleanDiff, the Table 1 composition
// for DiffAnd), which an aliased key would break.
func TestMixedCacheTrafficTinyCache(t *testing.T) {
	for _, bits := range []uint{1, 3, 6} {
		m := NewAnon(8)
		m.setCacheBits(bits)
		rng := rand.New(rand.NewSource(int64(40 + bits)))
		pool := diffPool(m, rng, 10, 30)
		truth := func(f Ref) []bool { return evalAll(m, f, m.NumVars()) }
		for trial := 0; trial < 600; trial++ {
			q := drawQuad(rng, pool)
			switch trial % 3 {
			case 0:
				f, g, h := truth(q[0]), truth(q[1]), truth(q[2])
				for i, b := range truth(m.Ite(q[0], q[1], q[2])) {
					if b != (f[i] && g[i] || !f[i] && h[i]) {
						t.Fatalf("cache bits %d, trial %d: Ite%v wrong at minterm %d", bits, trial, q[:3], i)
					}
				}
			case 1:
				if got, want := m.DiffAnd(q[0], q[1], q[2], q[3]), diffOracle(m, q[0], q[1], q[2], q[3]); got != want {
					t.Fatalf("cache bits %d, trial %d: DiffAnd%v = %v, composition = %v", bits, trial, q, got, want)
				}
			default:
				v := rng.Intn(m.NumVars())
				f := truth(q[0])
				for i, b := range truth(m.BooleanDiff(q[0], v)) {
					if b != (f[i&^(1<<v)] != f[i|1<<v]) {
						t.Fatalf("cache bits %d, trial %d: BooleanDiff(%v, %d) wrong at minterm %d", bits, trial, q[0], v, i)
					}
				}
			}
		}
	}
}

// support returns the sorted order positions of the variables f depends
// on.
func support(m *Manager, f Ref) []int {
	seen := map[int32]bool{}
	vars := map[int32]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		id := int32(r) >> 1
		if id == 0 || seen[id] {
			return
		}
		seen[id] = true
		n := m.t.node(id)
		vars[n.level] = true
		walk(n.low)
		walk(n.high)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// TestSupportRowsMatchesSupport checks the packed supports against
// support on random functions, past one word of variables.
func TestSupportRowsMatchesSupport(t *testing.T) {
	m := NewAnon(100)
	rng := rand.New(rand.NewSource(17))
	fs := []Ref{False, True, m.Var(99), m.NVar(64)}
	for i := 0; i < 30; i++ {
		f := randomFunc(m, rng, 100, 60)
		fs = append(fs, f, f^1)
	}
	rows, words := m.SupportRows(fs)
	if words != 2 || len(rows) != len(fs)*words {
		t.Fatalf("%d words, %d row words for %d functions; want 2 and %d", words, len(rows), len(fs), 2*len(fs))
	}
	for i, f := range fs {
		want := make([]uint64, words)
		for _, v := range support(m, f) {
			want[v/64] |= 1 << uint(v%64)
		}
		for w := range want {
			if rows[i*words+w] != want[w] {
				t.Fatalf("function %d word %d: row %#x, support %#x", i, w, rows[i*words+w], want[w])
			}
		}
	}
}
