// Primary-input site units.
//
// Both stuck-at polarities of a primary input share one observability
// function, the output functions' Boolean differences with respect to the
// input, so one analysis answers them both (diffprop.Engine.StuckAtPI). The campaign dispatcher therefore treats a run of adjacent
// faults on one primary input as a single unit of work.
package analysis

import "repro/internal/diffprop"

// siteUnits groups fault indices into units of work: a maximal run of
// adjacent faults that sit on the same primary input is one unit,
// analyzed by one worker from a single shared analysis; every other
// fault is a unit of one. In a collapsed checkpoint list both polarities
// of an input are adjacent. A nil *siteUnits makes every fault its own
// unit.
type siteUnits struct {
	// end[i] is one past the last fault of the unit containing i.
	end []int
	// run analyzes the faults idx (two or more, in index order) of one
	// unit from one shared analysis and records them. shared is false when
	// nothing was recorded and the caller must analyze each fault on its
	// own; err is a fatal persistence error.
	run func(e *diffprop.Engine, w int, idx []int) (shared bool, err error)
}

// newSiteUnits builds the unit plan of a fault set. key(i) names the
// primary input fault i sits on, or -1 for a fault that is never grouped.
// It returns nil when no unit holds more than one fault.
func newSiteUnits(total int, key func(i int) int, run func(e *diffprop.Engine, w int, idx []int) (bool, error)) *siteUnits {
	end := make([]int, total)
	grouped := false
	for i := 0; i < total; {
		k := i + 1
		if u := key(i); u >= 0 {
			for k < total && key(k) == u {
				k++
			}
		}
		grouped = grouped || k-i > 1
		for p := i; p < k; p++ {
			end[p] = k
		}
		i = k
	}
	if !grouped {
		return nil
	}
	return &siteUnits{end: end, run: run}
}

// unitEnd returns one past the last fault of the unit starting at i.
func (u *siteUnits) unitEnd(i int) int {
	if u == nil {
		return i + 1
	}
	return u.end[i]
}

// align extends a claim [lo,hi) that ends inside a unit to the unit's
// end, so a unit is never split across workers.
func (u *siteUnits) align(hi int) int {
	if u == nil || hi == 0 || hi >= len(u.end) {
		return hi
	}
	return u.end[hi-1]
}
