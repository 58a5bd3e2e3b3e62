package analysis

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// ladderOn is a fully enabled recovery ladder with bounds generous enough
// that nothing ever fires on the small circuits.
var ladderOn = diffprop.Recovery{
	NodeLimit:       1 << 22,
	RetryMultiplier: 8,
}

// TestLadderInvarianceWhenNoBudgetFires pins the regression contract of
// the satellite task: with no per-fault budget armed and a watermark no
// analysis reaches, campaign results on C432 and C499 are bit-identical
// with the ladder fully enabled vs disabled — the ladder must be pure
// mechanism, invisible until a bound actually fires.
func TestLadderInvarianceWhenNoBudgetFires(t *testing.T) {
	for _, name := range []string{"c432s", "c499s"} {
		c := circuits.MustGet(name)
		fs := faults.CheckpointStuckAts(c.Decompose2())
		off, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		on, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4, Recovery: ladderOn})
		if err != nil {
			t.Fatal(err)
		}
		if on.Stats.Retried != 0 || on.Stats.Rescued != 0 {
			t.Fatalf("%s: ladder fired with no budget armed: %+v", name, on.Stats)
		}
		if !reflect.DeepEqual(stripStatsSA(on), stripStatsSA(off)) {
			t.Fatalf("%s: enabling the ladder changed budget-free results", name)
		}
	}
}

// TestLadderRescuesTightBudgetC1908 is the acceptance test of the issue:
// on a C1908 stuck-at campaign under a deliberately tight FaultBudget, the
// recovery ladder converts previously Approximate records into exact
// results — CampaignStats.Degraded drops to zero and Rescued counts the
// conversions — and the rescued study is bit-identical to an unbudgeted
// run. The list's primary-input faults come first and are answered from
// Boolean differences far under the budget, so the subset is the 40
// faults from the first fan-out branch fault on, which propagate.
func TestLadderRescuesTightBudgetC1908(t *testing.T) {
	c := circuits.MustGet("c1908s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	first := 0
	for first < len(fs) && !fs[first].IsBranch() {
		first++
	}
	fs = fs[first:min(first+40, len(fs))]
	// ~100k charged ops sits under the median per-fault cost measured on
	// this circuit, so a healthy fraction of the subset blows it.
	const tightOps = 100_000

	baseline, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3, FaultOps: tightOps})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Stats.Degraded == 0 {
		t.Fatalf("tight %d-op budget degraded nothing; the rescue path has nothing to prove", tightOps)
	}
	if baseline.Stats.Retried != 0 {
		t.Fatalf("ladder-off campaign retried %d faults", baseline.Stats.Retried)
	}

	ladder, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:  3,
		FaultOps: tightOps,
		Recovery: diffprop.Recovery{RetryMultiplier: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ladder.Stats.Degraded != 0 {
		t.Fatalf("ladder left %d faults degraded (baseline %d); 16x retry budget should rescue all of them",
			ladder.Stats.Degraded, baseline.Stats.Degraded)
	}
	if ladder.Stats.Rescued == 0 || ladder.Stats.Retried < ladder.Stats.Rescued {
		t.Fatalf("rescue counters inconsistent: %+v", ladder.Stats)
	}
	for i, r := range ladder.Records {
		if r.Approximate || r.Err != "" || r.Skipped {
			t.Fatalf("record %d not exact after rescue: %+v", i, r)
		}
	}

	// Rescued results are exact results: the study must match an
	// unbudgeted run bit for bit.
	exact, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsSA(ladder), stripStatsSA(exact)) {
		t.Fatal("rescued study differs from the unbudgeted reference")
	}
}

// TestSerialParallelEquivalentWithLadderActive drives the GC rung and the
// relaxed retry on every fault (a 1-op budget aborts each first attempt;
// the huge multiplier makes every retry succeed) under the smallest node
// watermark, and requires serial and parallel campaigns to produce
// identical, fully exact studies. Runs under -race in CI.
func TestSerialParallelEquivalentWithLadderActive(t *testing.T) {
	c := circuits.MustGet("c95s")
	rec := diffprop.Recovery{NodeLimit: 1, RetryMultiplier: 1e12}

	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	e.SetFaultBudget(1)
	e.SetRecovery(rec)
	serial := RunStuckAt(e, fs)
	if got := e.Stats().Rebuilds; got == 0 {
		t.Fatal("serial engine never ran the GC rung")
	}

	reference, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsSA(serial), stripStatsSA(reference)) {
		t.Fatal("ladder-rescued serial study differs from the unbudgeted reference")
	}

	for _, workers := range []int{2, 4} {
		par, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
			Workers:  workers,
			FaultOps: 1,
			Recovery: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A few trivial faults finish without charging a single op and stay
		// exact on the first attempt; everything else must be rescued.
		if par.Stats.Degraded != 0 || par.Stats.Rescued == 0 {
			t.Fatalf("workers=%d: rescue incomplete: %+v", workers, par.Stats)
		}
		if par.Stats.Rebuilds == 0 {
			t.Fatalf("workers=%d: GC rung never fired", workers)
		}
		if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(serial)) {
			t.Fatalf("workers=%d: parallel ladder study differs from serial", workers)
		}
	}
}

// TestLadderRescueBridging covers the bridging retry rung: a 1-op budget
// with an effectively unlimited retry must produce the exact study.
func TestLadderRescueBridging(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	bs, pop, sampled := BridgingSet(work, faults.WiredAND, 60, 0.3, 7)
	exact, err := RunBridgingCampaign(c, nil, bs, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rescued, err := RunBridgingCampaign(c, nil, bs, faults.WiredAND, pop, sampled, CampaignConfig{
		Workers:  2,
		FaultOps: 1,
		Recovery: diffprop.Recovery{RetryMultiplier: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rescued.Stats.Degraded != 0 || rescued.Stats.Rescued == 0 {
		t.Fatalf("bridging rescue failed: %+v", rescued.Stats)
	}
	if !reflect.DeepEqual(stripStatsBF(rescued), stripStatsBF(exact)) {
		t.Fatal("rescued bridging study differs from the unbudgeted reference")
	}
}

// TestLadderDegradationIndependentOfWorkers pins bit-identity when the recovery
// ladder is live: a one-op budget blows almost every fault on first
// attempt and again on the 2x retry, degrading it to the deterministic
// simulation estimate. The resulting mix of exact and approximate records
// must not depend on the worker count, and so on the order in which the
// workers happen to reach the faults.
func TestLadderDegradationIndependentOfWorkers(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	var want StuckAtStudy
	for _, workers := range []int{1, 3} {
		cfg := CampaignConfig{
			Workers:  workers,
			FaultOps: 1,
			Recovery: diffprop.Recovery{RetryMultiplier: 2},
		}
		study, err := RunStuckAtCampaign(c, nil, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if study.Stats.Degraded == 0 {
			t.Fatalf("workers=%d: no fault degraded under a one-op budget", workers)
		}
		if workers == 1 {
			want = study
			continue
		}
		if !reflect.DeepEqual(stripStatsSA(study), stripStatsSA(want)) {
			t.Fatalf("workers=%d: degraded study differs from the serial baseline", workers)
		}
	}
}
