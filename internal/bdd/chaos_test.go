package bdd

import (
	"errors"
	"testing"
)

// recoverSentinel runs fn and returns which resource sentinel (if any)
// its panic carried.
func recoverSentinel(t *testing.T, fn func()) (err error) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, ok := r.(error)
		if !ok || (!errors.Is(e, ErrBudget) && !errors.Is(e, ErrNodeLimit)) {
			t.Fatalf("panic value %v, want ErrBudget or ErrNodeLimit", r)
		}
		err = e
	}()
	fn()
	return nil
}

func TestChaosAbortFiresAtThreshold(t *testing.T) {
	m := NewAnon(32)
	m.SetBudget(0)
	m.SetChaosAbort(1, ErrNodeLimit)
	if err := recoverSentinel(t, func() { buildHeavy(m, 8) }); !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("chaos abort raised %v, want ErrNodeLimit", err)
	}
	if m.OpsCharged() != 1 {
		t.Fatalf("aborted at op %d, want 1", m.OpsCharged())
	}
	// One-shot: the trigger disarmed itself on firing.
	if err := recoverSentinel(t, func() { buildHeavy(m, 8) }); err != nil {
		t.Fatalf("disarmed chaos abort fired again: %v", err)
	}
}

func TestChaosAbortDefaultsToErrBudget(t *testing.T) {
	m := NewAnon(16)
	m.SetBudget(0)
	m.SetChaosAbort(3, nil)
	if err := recoverSentinel(t, func() { buildHeavy(m, 8) }); !errors.Is(err, ErrBudget) {
		t.Fatalf("chaos abort raised %v, want ErrBudget", err)
	}
	if m.OpsCharged() != 3 {
		t.Fatalf("aborted at op %d, want 3", m.OpsCharged())
	}
}

func TestChaosAbortClearedBySetBudget(t *testing.T) {
	m := NewAnon(16)
	m.SetChaosAbort(1, ErrBudget)
	// Re-arming the budget resets the meter the threshold was relative
	// to, so it must disarm the pending abort too.
	m.SetBudget(0)
	if err := recoverSentinel(t, func() { buildHeavy(m, 8) }); err != nil {
		t.Fatalf("SetBudget left the chaos abort armed: %v", err)
	}
	m.SetChaosAbort(1, ErrBudget)
	m.SetChaosAbort(0, nil)
	if err := recoverSentinel(t, func() { buildHeavy(m, 8) }); err != nil {
		t.Fatalf("SetChaosAbort(0, nil) did not disarm: %v", err)
	}
}

func TestChaosAbortShieldedFromTransfer(t *testing.T) {
	src := NewAnon(12)
	f := buildHeavy(src, 8)
	dst := NewAnon(12)
	dst.SetChaosAbort(1, ErrBudget)
	var got []Ref
	if err := recoverSentinel(t, func() { got = src.Transfer(dst, f) }); err != nil {
		t.Fatalf("Transfer tripped the destination's chaos abort: %v", err)
	}
	if len(got) != 1 {
		t.Fatal("transfer incomplete")
	}
	// The pending abort survives the shield and fires on real work.
	if err := recoverSentinel(t, func() { buildHeavy(dst, 8) }); !errors.Is(err, ErrBudget) {
		t.Fatalf("chaos abort lost across Transfer: %v", err)
	}
}
