package analysis

import (
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// OrderOps is the cost a BDD variable order is chosen by for the committed
// catalog order table (internal/diffprop/ordertable_gen.go): the BDD
// operations, computed-cache hits plus misses with good-function synthesis
// included, of a serial stuck-at campaign over every stride-th checkpoint
// fault of c built under order. A serial campaign visits its faults in
// index order on one table, so the count is deterministic.
func OrderOps(c *netlist.Circuit, order []string, stride int) (int64, error) {
	all := faults.CheckpointStuckAts(c.Decompose2())
	fs := make([]faults.StuckAt, 0, (len(all)+stride-1)/stride)
	for i := 0; i < len(all); i += stride {
		fs = append(fs, all[i])
	}
	study, err := RunStuckAtCampaign(c, &diffprop.Options{Order: order}, fs, CampaignConfig{Workers: 1})
	if err != nil {
		return 0, err
	}
	hits, misses := study.Stats.Cache.Totals()
	return hits + misses, nil
}
