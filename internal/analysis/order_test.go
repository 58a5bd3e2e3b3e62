package analysis

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// TestRecordsIndependentOfOrderTable runs every catalog circuit under its
// committed table order (New's default) and under DFSOrder: the stuck-at
// records and the AND and OR bridging records must be identical, since no
// record field depends on the variable order when no budget fires. The
// larger circuits run an evenly strided sample of their stuck-at list
// (PI and branch faults alike) to keep the test short.
func TestRecordsIndependentOfOrderTable(t *testing.T) {
	const maxStuckAt, maxBridging = 40, 10
	for _, name := range circuits.Names() {
		c := circuits.MustGet(name)
		work := c.Decompose2()
		dfs := &diffprop.Options{Order: diffprop.DFSOrder(work)}
		cfg := CampaignConfig{Workers: 2}

		all := faults.CheckpointStuckAts(work)
		fs := all
		if len(all) > maxStuckAt {
			fs = make([]faults.StuckAt, maxStuckAt)
			for i := range fs {
				fs[i] = all[i*len(all)/maxStuckAt]
			}
		}
		table, err := RunStuckAtCampaign(c, nil, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := RunStuckAtCampaign(c, dfs, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripStatsSA(table), stripStatsSA(base)) {
			t.Fatalf("%s: stuck-at records differ between the table order and DFSOrder", name)
		}

		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			bs, pop, sampled := BridgingSet(work, kind, maxBridging, 0.3, 7)
			table, err := RunBridgingCampaign(c, nil, bs, kind, pop, sampled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := RunBridgingCampaign(c, dfs, bs, kind, pop, sampled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripStatsBF(table), stripStatsBF(base)) {
				t.Fatalf("%s: %v bridging records differ between the table order and DFSOrder", name, kind)
			}
		}
	}
}
