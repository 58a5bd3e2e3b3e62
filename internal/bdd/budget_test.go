package bdd

import (
	"errors"
	"math/rand"
	"testing"
)

// buildHeavy performs a few thousand cache-miss operations: the OR of many
// random minterms over a wide variable set shares almost nothing, so every
// And/Or step misses.
func buildHeavy(m *Manager, minterms int) Ref {
	rng := rand.New(rand.NewSource(42))
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

// recoverBudget runs fn and reports whether it aborted with ErrBudget.
func recoverBudget(t *testing.T, fn func()) (aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrBudget) {
			t.Fatalf("panic value %v, want ErrBudget", r)
		}
		aborted = true
	}()
	fn()
	return false
}

func TestBudgetOpsAbort(t *testing.T) {
	m := NewAnon(32)
	m.SetBudget(100)
	if !recoverBudget(t, func() { buildHeavy(m, 64) }) {
		t.Fatal("a 100-op budget survived thousands of cache misses")
	}
	if m.OpsCharged() <= 100 {
		t.Fatalf("ops charged = %d, want > 100 at abort", m.OpsCharged())
	}
	// The manager must stay usable: the abort fires between node-table
	// mutations, so the unique table is still consistent.
	m.ClearBudget()
	f := m.And(m.Var(0), m.Var(1))
	if m.Eval(f, evalAssign(m, 0, 1)) != true {
		t.Fatal("manager broken after budget abort")
	}
	if recoverBudget(t, func() { buildHeavy(m, 64) }) {
		t.Fatal("cleared budget still aborts")
	}
}

func TestBudgetRearmResetsCounter(t *testing.T) {
	m := NewAnon(8)
	m.SetBudget(1 << 40)
	buildHeavy(m, 4)
	if m.OpsCharged() == 0 {
		t.Fatal("no ops charged by a heavy build")
	}
	m.SetBudget(1 << 40)
	if m.OpsCharged() != 0 {
		t.Fatalf("re-arming left %d ops on the counter", m.OpsCharged())
	}
}

// evalAssign builds an assignment with the listed variables set to true.
func evalAssign(m *Manager, trueVars ...int) []bool {
	a := make([]bool, m.NumVars())
	for _, v := range trueVars {
		a[v] = true
	}
	return a
}
