package analysis

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// TestCalibratorMonotoneRatchet drives the calibrator directly through a
// cheap population, an even cheaper one, and an expensive one, and checks
// the published bounds only ever ratchet upward — a re-calibration can
// never shrink the budget below one a worker may already have armed — and
// that apply arms exactly the published bounds on an engine.
func TestCalibratorMonotoneRatchet(t *testing.T) {
	cal := newCalibrator(CampaignConfig{Calibrate: true}, nil)
	if cal == nil {
		t.Fatal("enabled calibration built no calibrator")
	}
	cal.warmup, cal.refresh = 4, 4
	feed := func(ops int64, n int) {
		for i := 0; i < n; i++ {
			cal.observe(outcomeExact, ops)
		}
	}

	feed(1000, 4) // warmup fills: first publication
	budget, retry, updates := cal.snapshot()
	if updates != 1 {
		t.Fatalf("updates = %d after warmup, want 1", updates)
	}
	wantBudget := int64(1000 * calHeadroom)
	if budget != wantBudget {
		t.Fatalf("budget = %d, want q99 x headroom = %d", budget, wantBudget)
	}
	if retry != calRetryMin {
		t.Fatalf("retry = %v, want the %v floor (flat population has no tail)", retry, calRetryMin)
	}

	feed(10, 4) // cheaper population: derivation runs, bounds must hold
	if b, _, u := cal.snapshot(); b != wantBudget || u != 1 {
		t.Fatalf("cheap refresh moved the bounds: budget %d updates %d, want %d/1", b, u, wantBudget)
	}

	feed(100_000, 4) // expensive population: the ratchet raises
	budget2, _, updates2 := cal.snapshot()
	if budget2 <= budget || updates2 != 2 {
		t.Fatalf("expensive refresh: budget %d updates %d, want a raise past %d with 2 updates", budget2, updates2, budget)
	}

	// apply arms the published bounds; a same-generation re-apply is a no-op.
	e, err := diffprop.New(circuits.MustGet("c17"), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := cal.apply(e, 0)
	if gen != cal.gen.Load() {
		t.Fatalf("apply returned generation %d, want %d", gen, cal.gen.Load())
	}
	if got := e.FaultBudget(); got != budget2 {
		t.Fatalf("armed budget = %d, want %d", got, budget2)
	}
	if got := e.Recovery().RetryMultiplier; got != calRetryMin {
		t.Fatalf("armed retry multiplier = %v, want %v", got, calRetryMin)
	}
	if g := cal.apply(e, gen); g != gen {
		t.Fatalf("same-generation apply returned %d, want %d", g, gen)
	}
}

// TestCalibrationPinnedRetryWins checks that a campaign's own
// RetryMultiplier is never overridden by the calibrated one: calibration
// only arms the retry rung when the config left it unset.
func TestCalibrationPinnedRetryWins(t *testing.T) {
	cal := newCalibrator(CampaignConfig{
		Recovery:  diffprop.Recovery{RetryMultiplier: 3},
		Calibrate: true,
	}, nil)
	cal.warmup, cal.refresh = 2, 2
	for i := 0; i < 4; i++ {
		cal.observe(outcomeExact, 500)
	}
	e, err := diffprop.New(circuits.MustGet("c17"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cal.apply(e, 0)
	if got := e.Recovery().RetryMultiplier; got != 3 {
		t.Fatalf("calibration overrode the pinned retry multiplier: %v, want 3", got)
	}
}

// TestCalibrationZeroDegraded runs real campaigns with self-calibration
// and no hand-tuned budget, and demands zero degraded and zero errored
// faults with records bit-identical to an unbudgeted run — the calibrated
// budget must admit the circuit's whole fault population (rescuing any
// outlier via the calibrated retry rung) while still arming real bounds.
func TestCalibrationZeroDegraded(t *testing.T) {
	for _, name := range []string{"c432s", "c499s"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustGet(name)
			fs := faults.CheckpointStuckAts(c.Decompose2())
			clean, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
				Workers:   4,
				Calibrate: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if study.Stats.Degraded != 0 || study.Stats.Errored != 0 {
				t.Fatalf("calibrated run: degraded=%d errored=%d, want 0/0",
					study.Stats.Degraded, study.Stats.Errored)
			}
			if study.Stats.CalibrationUpdates < 1 {
				t.Fatal("calibration never published bounds")
			}
			if study.Stats.CalibrationBudgetOps <= 0 || study.Stats.CalibrationRetryMult <= 1 {
				t.Fatalf("calibrated bounds not armed: ops=%d retry=%v",
					study.Stats.CalibrationBudgetOps, study.Stats.CalibrationRetryMult)
			}
			if !reflect.DeepEqual(study.Records, clean.Records) {
				t.Fatal("calibrated records differ from the unbudgeted run")
			}
		})
	}
}

// TestCalibrationUnderChaosStorm runs calibration and a chaos abort storm
// together over shared-table workers — the -race regression for the
// calibrated recovery ladder: re-arming happens worker-locally between
// faults, so RelaxBudget restore closures and concurrent recalibrations
// must never race or lose records.
func TestCalibrationUnderChaosStorm(t *testing.T) {
	c := circuits.MustGet("c95s")
	// Four passes over the fault list cross the refresh window three
	// times, so re-derivations run while workers re-arm.
	var fs []faults.StuckAt
	for pass := 0; pass < 4; pass++ {
		fs = append(fs, faults.CheckpointStuckAts(c.Decompose2())...)
	}
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:   4,
		Calibrate: true,
		Chaos: &chaos.Config{Seed: 13, Rules: []chaos.Rule{
			{Point: chaos.PointBudget, Prob: 0.25},
			{Point: chaos.PointNodeLimit, Prob: 0.1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Faults != len(fs) {
		t.Fatalf("analyzed %d faults, want %d (lost records under the storm)", study.Stats.Faults, len(fs))
	}
	for i, r := range study.Records {
		if r.Skipped {
			t.Fatalf("record %d skipped; the storm lost it", i)
		}
	}
	if study.Stats.ChaosInjected == 0 {
		t.Fatal("storm injected nothing")
	}
}
