package analysis

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

func TestParseOrderPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OrderPolicy
	}{
		{"", OrderIndex}, {"index", OrderIndex}, {"cone", OrderCone}, {"level", OrderLevel},
	} {
		got, err := ParseOrderPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseOrderPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("round trip: %v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseOrderPolicy("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestScheduleClusterInvariants checks the structural contract the
// work-stealing dispatcher relies on: perm is a permutation of the fault
// indices, clusterStart marks maximal runs of equal cluster keys, and trim
// always yields a non-empty claim that either lands on a cluster boundary
// or keeps the guided block intact.
func TestScheduleClusterInvariants(t *testing.T) {
	c := circuits.MustGet("c95s").Decompose2()
	fs := faults.CheckpointStuckAts(c)
	reach := faults.NewReachability(c)
	for _, policy := range []OrderPolicy{OrderCone, OrderLevel} {
		sched := newSchedule(policy, len(fs), func(i int) int { return stuckAtSite(fs[i]) }, c, reach)
		if sched == nil {
			t.Fatalf("%v: nil schedule for %d faults", policy, len(fs))
		}
		seen := make([]bool, len(fs))
		for j := range fs {
			i := sched.index(j)
			if i < 0 || i >= len(fs) || seen[i] {
				t.Fatalf("%v: perm[%d] = %d is out of range or repeated", policy, j, i)
			}
			seen[i] = true
		}
		for j := range fs {
			cs := sched.clusterStart[j]
			if cs > j || sched.clusterStart[cs] != cs {
				t.Fatalf("%v: clusterStart[%d] = %d is not a start position", policy, j, cs)
			}
			if j > 0 && sched.clusterStart[j-1] != cs && sched.clusterStart[j] != j {
				t.Fatalf("%v: cluster at %d neither continues nor starts", policy, j)
			}
		}
		for lo := 0; lo < len(fs); lo += 7 {
			for _, span := range []int{1, 3, 10, len(fs)} {
				hi := lo + span
				if hi > len(fs) {
					hi = len(fs)
				}
				got := sched.trim(lo, hi)
				if got <= lo || got > hi {
					t.Fatalf("%v: trim(%d, %d) = %d leaves an empty or oversized claim", policy, lo, hi, got)
				}
				if got != hi && sched.clusterStart[got] != got {
					t.Fatalf("%v: trim(%d, %d) = %d is not a cluster boundary", policy, lo, hi, got)
				}
			}
		}
	}
	if s := newSchedule(OrderIndex, len(fs), func(i int) int { return stuckAtSite(fs[i]) }, c, reach); s != nil {
		t.Fatal("index policy must use the identity schedule")
	}
}

// TestStuckAtOrderPoliciesBitIdentical is the scheduling layer's core
// guarantee: every dispatch order and worker count produces records
// bit-identical to the serial index-order run.
func TestStuckAtOrderPoliciesBitIdentical(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	serial := RunStuckAt(e, fs)
	for _, order := range []OrderPolicy{OrderIndex, OrderCone, OrderLevel} {
		for _, workers := range []int{1, 4} {
			cfg := CampaignConfig{Workers: workers, Order: order}
			par, err := RunStuckAtCampaign(c, nil, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Stats.Order != order {
				t.Fatalf("order=%v workers=%d: stats report order %v", order, workers, par.Stats.Order)
			}
			if par.Stats.GatesSkipped == 0 {
				t.Fatalf("order=%v workers=%d: worklist skipped no gates", order, workers)
			}
			if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(serial)) {
				t.Fatalf("order=%v workers=%d: study differs from serial index order", order, workers)
			}
		}
	}
}

// TestBridgingOrderPoliciesBitIdentical extends the guarantee to the
// bridging campaign, whose clusters anchor on the bridge's lower wire.
func TestBridgingOrderPoliciesBitIdentical(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, pop, sampled := BridgingSet(e.Circuit, faults.WiredOR, 150, 0.3, 7)
	serial := RunBridging(e, set, faults.WiredOR, pop, sampled)
	for _, order := range []OrderPolicy{OrderCone, OrderLevel} {
		for _, workers := range []int{1, 4} {
			par, err := RunBridgingCampaign(c, nil, set, faults.WiredOR, pop, sampled,
				CampaignConfig{Workers: workers, Order: order})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripStatsBF(par), stripStatsBF(serial)) {
				t.Fatalf("order=%v workers=%d: bridging study differs from serial", order, workers)
			}
		}
	}
}

// TestOrderPoliciesUnderBudgetLadder pins bit-identity when the recovery
// ladder is live: a one-op budget blows almost every fault on first
// attempt and again on the 2x retry, degrading it to the deterministic
// simulation estimate. The resulting mix of exact and approximate records
// must not depend on dispatch order or worker count.
func TestOrderPoliciesUnderBudgetLadder(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	var want StuckAtStudy
	for i, order := range []OrderPolicy{OrderIndex, OrderCone, OrderLevel} {
		for _, workers := range []int{1, 3} {
			cfg := CampaignConfig{
				Workers:  workers,
				Order:    order,
				FaultOps: 1,
				Recovery: diffprop.Recovery{RetryMultiplier: 2},
			}
			study, err := RunStuckAtCampaign(c, nil, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if study.Stats.Degraded == 0 {
				t.Fatalf("order=%v workers=%d: no fault degraded under a one-op budget", order, workers)
			}
			if i == 0 && workers == 1 {
				want = study
				continue
			}
			if !reflect.DeepEqual(stripStatsSA(study), stripStatsSA(want)) {
				t.Fatalf("order=%v workers=%d: degraded study differs from index-order baseline", order, workers)
			}
		}
	}
}
