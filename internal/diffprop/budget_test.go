package diffprop

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
)

// analyzeBudgeted runs one StuckAt query and reports whether it aborted
// with bdd.ErrBudget (recovering the engine if so).
func analyzeBudgeted(t *testing.T, e *Engine, f faults.StuckAt) (res Result, aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, bdd.ErrBudget) {
			t.Fatalf("panic value %v, want bdd.ErrBudget", r)
		}
		e.Recover()
		aborted = true
	}()
	return e.StuckAt(f), false
}

func TestFaultBudgetAbortAndRecover(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	if len(fs) < 4 {
		t.Fatal("fault set too small")
	}

	// Reference run: unbudgeted results for the first few faults.
	want := make([]Result, 4)
	for i := range want {
		want[i] = e.StuckAt(fs[i])
		want[i].PerPO = nil // refs die across recoveries; compare scalars
		want[i].Complete = bdd.False
	}

	// A one-op budget cannot finish any real propagation.
	e.SetFaultBudget(1)
	if _, aborted := analyzeBudgeted(t, e, fs[0]); !aborted {
		t.Fatal("Ops=1 budget did not abort the analysis")
	}

	// After Recover + a generous budget, queries must match the
	// unbudgeted reference exactly.
	e.SetFaultBudget(1 << 40)
	for i := range want {
		got := e.StuckAt(fs[i])
		got.PerPO = nil
		got.Complete = bdd.False
		got.ObservedPOs = append([]int(nil), got.ObservedPOs...)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fault %d: budgeted result %+v != unbudgeted %+v", i, got, want[i])
		}
	}

	// Disarming restores unbounded analysis.
	e.SetFaultBudget(0)
	if _, aborted := analyzeBudgeted(t, e, fs[0]); aborted {
		t.Fatal("disarmed budget still aborts")
	}
}

func TestShareCopiesFaultBudget(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultBudget(123)
	if got := e.Share().FaultBudget(); got != 123 {
		t.Fatalf("view budget = %d", got)
	}
}
