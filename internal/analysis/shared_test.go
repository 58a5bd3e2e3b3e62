package analysis

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// TestSharedCampaignUnderGovernorPressure forces the memory governor to
// park workers for the whole campaign, so every parked worker runs GCNow
// against the one shared table while siblings are mid-fault under the
// analysis read lock. The write-locked collection must wait for them and
// the results must still be exact and bit-identical to an unpressured
// run.
func TestSharedCampaignUnderGovernorPressure(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	calm, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	pressured, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers:  4,
		MemLimit: 1 << 30,
		MemPoll:  time.Millisecond,
		memSample: func() int64 {
			// Alternate over/under the ceiling so workers park (running
			// GCNow on the shared table), wake, and repeat.
			n++
			if n%2 == 0 {
				return 1 << 40
			}
			return 1
		},
		Recovery: diffprop.Recovery{NodeLimit: 1 << 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStatsSA(pressured), stripStatsSA(calm)) {
		t.Fatal("governor pressure changed shared-backend results")
	}
}
