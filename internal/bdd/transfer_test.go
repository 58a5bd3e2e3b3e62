package bdd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// buildHeavyRng is buildHeavy with a caller-owned rng, so one manager can
// host many distinct random functions.
func buildHeavyRng(m *Manager, rng *rand.Rand, minterms int) Ref {
	acc := False
	for i := 0; i < minterms; i++ {
		cube := True
		for v := 0; v < m.NumVars(); v++ {
			if rng.Intn(2) == 1 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		acc = m.Or(acc, cube)
	}
	return acc
}

// TestTransferIntoBudgetArmedManager is the regression test for the
// mid-transfer abort bug: a different-order Transfer runs through dst.Ite,
// which charges dst's operation budget and checks its node limit, so a
// tightly armed destination used to panic ErrBudget/ErrNodeLimit halfway
// through the copy. Transfer must disarm both meters for the duration and
// restore them exactly afterwards.
func TestTransferIntoBudgetArmedManager(t *testing.T) {
	m := New("a", "b", "c", "d", "e", "f")
	f := buildHeavy(m, 24)
	want := m.SatCount(f)

	// Reversed order forces the Ite path; budget of 1 op and a 2-node limit
	// would both trip immediately if transfer charged them.
	dst := New("f", "e", "d", "c", "b", "a")
	dst.SetBudget(1)
	dst.SetNodeLimit(2)
	out := func() []Ref {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("transfer panicked through the armed budget: %v", r)
			}
		}()
		return m.Transfer(dst, f)
	}()
	if got := dst.SatCount(out[0]); got.Cmp(want) != 0 {
		t.Fatalf("transferred function counts %v, want %v", got, want)
	}

	// The meters must be rearmed after the copy: ordinary work on dst still
	// aborts, with the ops charged during transfer not counted against it.
	if dst.NodeLimit() != 2 {
		t.Fatalf("node limit not restored: %d", dst.NodeLimit())
	}
	func() {
		defer func() {
			if r := recover(); r != ErrBudget && r != ErrNodeLimit {
				t.Fatalf("restored meters did not fire, got %v", r)
			}
		}()
		g := False
		for i := 0; i < dst.NumVars(); i++ {
			g = dst.Xor(g, dst.Var(i))
		}
		t.Fatalf("armed destination allowed unbounded work")
	}()

	// Same-order path must be shielded too (it allocates via dst.mk).
	dst2 := New("a", "b", "c", "d", "e", "f")
	dst2.SetNodeLimit(2)
	out2 := m.Transfer(dst2, f)
	if got := dst2.SatCount(out2[0]); got.Cmp(want) != 0 {
		t.Fatalf("same-order transfer counts %v, want %v", got, want)
	}
}

// TestSatCountExactPast53Bits pins SatCount beyond float64's mantissa:
// the count of OR over n variables is 2^n − 1, which for n > 53 no
// float64 represents, and SatCount must still return it exactly.
// SatFrac divides in extended precision before rounding once.
func TestSatCountExactPast53Bits(t *testing.T) {
	const n = 60
	m := NewAnon(n)
	f := False
	for i := 0; i < n; i++ {
		f = m.Or(f, m.Var(i))
	}
	exact := m.SatCount(f)
	want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), n), big.NewInt(1))
	if exact.Cmp(want) != 0 {
		t.Fatalf("SatCount(or-60) = %v, want 2^60-1", exact)
	}
	if frac := m.SatFrac(f); math.Abs(frac-1) > 1e-15 {
		t.Fatalf("SatFrac(or-60) = %v, want ~1", frac)
	}
}

// BenchmarkTransferSatCarry measures the same-order Transfer fast path
// against a source manager whose sat-count cache is much larger than the
// transferred cone. The carry loop iterates the transfer memo (the nodes
// actually copied) and probes the cache, so per-clone cost must track the
// transferred node count, not the resident cache size — compare the
// small/large pairs: per-op time should be close for equal cones no
// matter how big the cache behind them is.
func BenchmarkTransferSatCarry(b *testing.B) {
	build := func(nCached int) (*Manager, Ref) {
		m := NewAnon(16)
		// One small cone to transfer...
		f := m.Or(m.And(m.Var(0), m.Var(1)), m.Xor(m.Var(2), m.Var(3)))
		m.SatCount(f)
		// ...and a large resident population with cached counts.
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < nCached; i++ {
			g := buildHeavyRng(m, rng, 6)
			m.SatCount(g)
		}
		return m, f
	}
	for _, tc := range []struct {
		name   string
		cached int
	}{
		{"cache-small", 8},
		{"cache-large", 512},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, f := build(tc.cached)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := NewAnon(16)
				m.Transfer(dst, f)
			}
		})
	}
}

// BenchmarkTransferCone scales the transferred cone itself (the large-
// cache counterpart above holds it fixed): per-op time here should grow
// with the cone, confirming the clone cost is linear in transferred
// nodes.
func BenchmarkTransferCone(b *testing.B) {
	for _, minterms := range []int{16, 128} {
		b.Run(map[int]string{16: "cone-small", 128: "cone-large"}[minterms], func(b *testing.B) {
			m := NewAnon(16)
			rng := rand.New(rand.NewSource(5))
			f := buildHeavyRng(m, rng, minterms)
			m.SatCount(f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := NewAnon(16)
				m.Transfer(dst, f)
			}
		})
	}
}
