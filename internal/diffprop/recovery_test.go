package diffprop

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
)

// analyzeLimited runs one StuckAt query and reports whether it aborted
// with bdd.ErrNodeLimit (recovering the engine if so).
func analyzeLimited(t *testing.T, e *Engine, f faults.StuckAt) (res Result, aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, bdd.ErrNodeLimit) {
			t.Fatalf("panic value %v, want bdd.ErrNodeLimit", r)
		}
		e.Recover()
		aborted = true
	}()
	return e.StuckAt(f), false
}

// scalars strips the manager-bound refs so results survive recoveries.
func scalars(r Result) Result {
	r.PerPO = nil
	r.Complete = bdd.False
	r.ObservedPOs = append([]int(nil), r.ObservedPOs...)
	return r
}

// heavyFault returns the index of the first fault whose analysis grows
// ref's node table by more than half its live good set: a fault that must
// trip the 1.5x headroom floor NodeLimit=1 arms. ref must be a fresh
// engine. Nodes left by earlier faults can only shrink a later fault's
// measured growth, so the fault trips the floor on a fresh engine too.
func heavyFault(t *testing.T, ref *Engine, fs []faults.StuckAt) int {
	t.Helper()
	live := ref.m.NodeCount()
	for i, f := range fs {
		before := ref.m.NodeCount()
		ref.StuckAt(f)
		if ref.m.NodeCount()-before > live/2 {
			return i
		}
	}
	t.Fatal("no fault outgrows the headroom floor; the ladder needs a heavier circuit")
	return -1
}

func TestNodeLimitAbortEntersLadder(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)

	// The heavy fault and the references come from a second engine so the
	// abort engine's node table holds only the good functions when the
	// watermark is armed (queries leave garbage that inflates the 1.5x
	// headroom floor).
	ref, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy := heavyFault(t, ref, fs)
	check := []int{heavy, 0, 1, 2, 3}
	want := make([]Result, len(check))
	for i, k := range check {
		want[i] = scalars(ref.StuckAt(fs[k]))
	}

	// NodeLimit=1 arms the minimum possible watermark (1.5x live), which
	// the heavy fault's propagation must blow.
	e.SetRecovery(Recovery{NodeLimit: 1})
	if _, aborted := analyzeLimited(t, e, fs[heavy]); !aborted {
		t.Fatalf("NodeLimit=1 did not abort the analysis of fault %d", heavy)
	}
	if got := e.Stats().NodesReclaimed; got <= 0 {
		t.Fatalf("ladder GC reclaimed %d nodes after an abort, want > 0", got)
	}

	// After the ladder, an unconstrained engine must reproduce the
	// reference results exactly.
	e.SetRecovery(Recovery{})
	for i, k := range check {
		if got := scalars(e.StuckAt(fs[k])); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fault %d after ladder: %+v != reference %+v", k, got, want[i])
		}
	}
}

func TestBeginRaisesWatermarkToHeadroom(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRecovery(Recovery{NodeLimit: 1})
	e.begin()
	live := e.m.NodeCount()
	if got := e.m.NodeLimit(); got < live+live/2 {
		t.Fatalf("armed watermark %d leaves no headroom over %d live nodes", got, live)
	}
	// Disarming the ladder disarms the watermark on the next begin.
	e.SetRecovery(Recovery{})
	e.begin()
	if got := e.m.NodeLimit(); got != 0 {
		t.Fatalf("cleared recovery left watermark %d armed", got)
	}
}

func TestRecoverKeepsVariableOrder(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	ref, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy := heavyFault(t, ref, fs)
	names := append([]string(nil), e.m.Names()...)
	varToInput := append([]int(nil), e.VarToInput()...)

	// Watermark 1 leaves the post-GC live set above it: the strongest case
	// for reordering, which the ladder must still not do. The second abort
	// is forced through the chaos seam, which enters the same ladder.
	e.SetRecovery(Recovery{NodeLimit: 1})
	if _, aborted := analyzeLimited(t, e, fs[heavy]); !aborted {
		t.Fatalf("NodeLimit=1 did not abort the analysis of fault %d", heavy)
	}
	e.ArmChaosAbort(1, bdd.ErrNodeLimit)
	if _, aborted := analyzeLimited(t, e, fs[0]); !aborted {
		t.Fatal("a forced node-limit abort did not fire")
	}
	if e.Stats().Rebuilds != 2 {
		t.Fatalf("two aborts ran %d ladder collections, want 2", e.Stats().Rebuilds)
	}
	if got := e.m.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("variable order after Recover = %v, want %v", got, names)
	}
	if got := e.VarToInput(); !reflect.DeepEqual(got, varToInput) {
		t.Fatalf("position->input map after Recover = %v, want %v", got, varToInput)
	}
}

func TestRelaxBudgetScalesAndRestores(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Disabled rung: multiplier <= 1.
	e.SetFaultBudget(100)
	if _, ok := e.RelaxBudget(); ok {
		t.Fatal("RelaxBudget armed with RetryMultiplier unset")
	}
	// Nothing to relax: no bound armed.
	e.SetFaultBudget(0)
	e.SetRecovery(Recovery{RetryMultiplier: 8})
	if _, ok := e.RelaxBudget(); ok {
		t.Fatal("RelaxBudget armed with no bound to relax")
	}

	e.SetFaultBudget(100)
	e.SetRecovery(Recovery{NodeLimit: 1000, RetryMultiplier: 8})
	restore, ok := e.RelaxBudget()
	if !ok {
		t.Fatal("RelaxBudget refused to arm")
	}
	if got := e.FaultBudget(); got != 800 {
		t.Fatalf("relaxed budget = %d, want 8x", got)
	}
	if got := e.Recovery().NodeLimit; got != 8000 {
		t.Fatalf("relaxed node limit = %d, want 8000", got)
	}
	restore()
	if got := e.FaultBudget(); got != 100 {
		t.Fatalf("restore left budget %d", got)
	}
	if got := e.Recovery().NodeLimit; got != 1000 {
		t.Fatalf("restore left node limit %d", got)
	}

	// Saturation: a huge bound times a huge multiplier must not overflow.
	e.SetFaultBudget(1 << 61)
	e.SetRecovery(Recovery{RetryMultiplier: 1e9})
	if _, ok := e.RelaxBudget(); !ok {
		t.Fatal("RelaxBudget refused a saturating arm")
	}
	if got := e.FaultBudget(); got != 1<<62 {
		t.Fatalf("saturated ops = %d, want 1<<62", got)
	}
}

func TestRetryRungRescuesBlownFault(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	want := scalars(e.StuckAt(fs[0]))

	// An ops budget too small for any real propagation, and a retry
	// multiplier large enough that the relaxed attempt is effectively
	// unbounded: the ladder must convert the abort into the exact result.
	e.SetFaultBudget(10)
	e.SetRecovery(Recovery{RetryMultiplier: 1e12})
	if _, aborted := analyzeBudgeted(t, e, fs[0]); !aborted {
		t.Fatal("Ops=10 budget did not abort the analysis")
	}
	restore, ok := e.RelaxBudget()
	if !ok {
		t.Fatal("retry rung refused to arm")
	}
	got, aborted := analyzeBudgeted(t, e, fs[0])
	restore()
	if aborted {
		t.Fatal("relaxed retry still aborted")
	}
	if s := scalars(got); !reflect.DeepEqual(s, want) {
		t.Fatalf("rescued result %+v != reference %+v", s, want)
	}
	// The original tight budget is back in force.
	if _, aborted := analyzeBudgeted(t, e, fs[1]); !aborted {
		t.Fatal("restore did not reinstate the tight budget")
	}
}

func TestShareCopiesRecovery(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := Recovery{NodeLimit: 1 << 20, RetryMultiplier: 4}
	e.SetRecovery(r)
	if got := e.Share().Recovery(); got != r {
		t.Fatalf("view recovery = %+v, want %+v", got, r)
	}
}
