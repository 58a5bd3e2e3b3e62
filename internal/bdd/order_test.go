package bdd

import (
	"math/rand"
	"testing"
)

// blockedComparator builds the classic order-sensitive function
// (a0∧b0) ∨ (a1∧b1) ∨ ... under the bad blocked order a0..ak b0..bk.
func blockedComparator(k int) (*Manager, Ref) {
	names := make([]string, 0, 2*k)
	for i := 0; i < k; i++ {
		names = append(names, "a"+string(rune('0'+i)))
	}
	for i := 0; i < k; i++ {
		names = append(names, "b"+string(rune('0'+i)))
	}
	m := New(names...)
	f := False
	for i := 0; i < k; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(k+i)))
	}
	return m, f
}

func TestSiftReachesInterleavedOptimum(t *testing.T) {
	const k = 6
	m, f := blockedComparator(k)
	before := m.TotalSize(f)
	m2, roots, size := m.Sift([]Ref{f}, 10)
	// The optimum for the comparator is the interleaved order: one a-node
	// and one b-node per pair plus the shared terminal, 2k+1 in all.
	// Exhaustive-position sifting must find it from the worst-case
	// blocked order.
	if size != 2*k+1 {
		t.Fatalf("sift reached %d nodes from %d, want optimum %d", size, before, 2*k+1)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		a1 := make([]bool, m.NumVars())
		for i := range a1 {
			a1[i] = rng.Intn(2) == 1
		}
		a2 := make([]bool, m2.NumVars())
		for i := 0; i < m2.NumVars(); i++ {
			a2[i] = a1[m.VarIndex(m2.VarName(i))]
		}
		if m.Eval(f, a1) != m2.Eval(roots[0], a2) {
			t.Fatal("sifting changed the function")
		}
	}
}

// windowReorderSize is the smallest TotalSize reachable by repeatedly
// trying every permutation of each window of w adjacent variables,
// keeping any improvement, for at most maxPasses passes.
func windowReorderSize(m *Manager, roots []Ref, w, maxPasses int) int {
	order := m.Names()
	best := m.TotalSize(roots...)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for lo := 0; lo+w <= len(order); lo++ {
			for _, perm := range permute(order[lo : lo+w]) {
				cand := append(append(append([]string{}, order[:lo]...), perm...), order[lo+w:]...)
				c := New(cand...)
				if size := c.TotalSize(m.Transfer(c, roots...)...); size < best {
					best, order, improved = size, cand, true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// permute returns every ordering of names.
func permute(names []string) [][]string {
	if len(names) <= 1 {
		return [][]string{append([]string{}, names...)}
	}
	var out [][]string
	for i, first := range names {
		rest := append(append([]string{}, names[:i]...), names[i+1:]...)
		for _, p := range permute(rest) {
			out = append(out, append([]string{first}, p...))
		}
	}
	return out
}

func TestSiftBeatsOrTiesWindow(t *testing.T) {
	m, f := blockedComparator(5)
	winSize := windowReorderSize(m, []Ref{f}, 3, 10)
	_, _, siftSize := m.Sift([]Ref{f}, 10)
	if siftSize > winSize {
		t.Fatalf("sift (%d) worse than window (%d)", siftSize, winSize)
	}
}

func TestSiftPreservesMultipleRoots(t *testing.T) {
	m, f := blockedComparator(4)
	g := m.Xor(f, m.Var(0))
	m2, roots, _ := m.Sift([]Ref{f, g}, 5)
	// Structural relationship must survive: g = f xor (variable "a0").
	va := m2.VarNamed("a0")
	if m2.Xor(roots[0], va) != roots[1] {
		t.Fatal("root relationship broken by sifting")
	}
}
