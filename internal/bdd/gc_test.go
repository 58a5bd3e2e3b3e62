package bdd

import (
	"errors"
	"testing"
)

// recoverNodeLimit runs fn and reports whether it aborted with ErrNodeLimit.
func recoverNodeLimit(t *testing.T, fn func()) (aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrNodeLimit) {
			t.Fatalf("panic value %v, want ErrNodeLimit", r)
		}
		aborted = true
	}()
	fn()
	return false
}

func TestNodeLimitAborts(t *testing.T) {
	m := NewAnon(32)
	m.SetNodeLimit(200)
	if !recoverNodeLimit(t, func() { buildHeavy(m, 64) }) {
		t.Fatal("a 200-node watermark survived a build of thousands of nodes")
	}
	if got := m.NodeCount(); got != 200 {
		t.Fatalf("node count at abort = %d, want exactly the watermark 200", got)
	}
	// The manager must stay usable after the abort, like ErrBudget.
	m.SetNodeLimit(0)
	f := m.And(m.Var(0), m.Var(1))
	if !m.Eval(f, evalAssign(m, 0, 1)) {
		t.Fatal("manager broken after node-limit abort")
	}
	if recoverNodeLimit(t, func() { buildHeavy(m, 64) }) {
		t.Fatal("disarmed watermark still aborts")
	}
}

func TestNodeLimitDistinguishableFromBudget(t *testing.T) {
	if errors.Is(ErrNodeLimit, ErrBudget) || errors.Is(ErrBudget, ErrNodeLimit) {
		t.Fatal("ErrNodeLimit and ErrBudget must be distinguishable sentinels")
	}
}

func TestGCReclaimsGarbageInPlace(t *testing.T) {
	m := NewAnon(16)
	live := buildHeavy(m, 8)
	// Garbage: a heavy intermediate that no root keeps alive.
	buildHeavy(m, 64)
	before := m.NodeCount()
	liveSize := m.TotalSize(live)
	namesBefore := m.Names()
	roots, res := m.GC([]Ref{live})
	if res.Before != before {
		t.Fatalf("GCResult.Before = %d, want %d", res.Before, before)
	}
	if res.Reclaimed() <= 0 {
		t.Fatalf("GC reclaimed %d nodes, want > 0 (table had %d, live set %d)",
			res.Reclaimed(), before, liveSize)
	}
	if got := m.NodeCount(); got != res.After || got >= before {
		t.Fatalf("node count after GC = %d (result says %d, before %d)", got, res.After, before)
	}
	for i, n := range m.Names() {
		if namesBefore[i] != n {
			t.Fatalf("GC changed the variable order: %v -> %v", namesBefore, m.Names())
		}
	}
	// The surviving root must be the same function.
	m2 := NewAnon(16)
	want := buildHeavy(m2, 8)
	if !equalFunctions(m, roots[0], m2, want) {
		t.Fatal("GC changed the live function")
	}
}

func TestGCKeepsBudgetAndCumulativeStats(t *testing.T) {
	m := NewAnon(16)
	live := buildHeavy(m, 16)
	preStats := m.CacheStats()
	if preStats.ApplyMisses == 0 {
		t.Fatal("heavy build charged no apply misses")
	}
	m.SetBudget(1 << 40)
	m.SetNodeLimit(1 << 20)
	_, _ = m.GC([]Ref{live})
	post := m.CacheStats()
	if post.ApplyMisses < preStats.ApplyMisses {
		t.Fatalf("GC lost cumulative cache stats: %d apply misses, had %d",
			post.ApplyMisses, preStats.ApplyMisses)
	}
	if m.NodeLimit() != 1<<20 {
		t.Fatalf("GC dropped the armed node watermark: %d", m.NodeLimit())
	}
	// The budget must still be armed: a tiny re-arm must abort a new build.
	m.SetBudget(10)
	if !recoverBudget(t, func() { buildHeavy(m, 32) }) {
		t.Fatal("budget no longer fires after GC")
	}
}

func TestGCCarriesSatCounts(t *testing.T) {
	m := NewAnon(12)
	live := buildHeavy(m, 8)
	want := m.SatFrac(live)
	roots, _ := m.GC([]Ref{live})
	if got := m.SatFrac(roots[0]); got != want {
		t.Fatalf("SatFrac after GC = %v, want %v", got, want)
	}
}

// equalFunctions compares two functions living in different managers (and
// possibly under different variable orders) by transfer into a common
// fresh manager with a canonical order.
func equalFunctions(ma *Manager, fa Ref, mb *Manager, fb Ref) bool {
	ref := New(ma.Names()...)
	ra := ma.Transfer(ref, fa)[0]
	rb := mb.Transfer(ref, fb)[0]
	return ra == rb
}
