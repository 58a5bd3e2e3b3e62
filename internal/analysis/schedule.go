// Cone-locality fault scheduling.
//
// The work-stealing dispatcher historically claimed contiguous blocks of
// raw fault indices. Index order follows fault-list generation order,
// which interleaves sites from unrelated regions of the circuit, so
// consecutive analyses on one worker rarely share fan-out cones and the
// shared op-cache stays colder than it needs to be. The scheduler here
// reorders the dispatch sequence by topology — clustering faults whose
// cones overlap — while keeping every record at its original index, so
// studies stay index-aligned and results remain bit-identical to the
// serial runner under any policy (each fault is still analyzed exactly
// once by the same record builder; only the visit order changes).
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// OrderPolicy selects the campaign dispatch order.
type OrderPolicy int

const (
	// OrderIndex dispatches faults in raw index order — the historical
	// behavior, and the right choice for tiny circuits (scheduling cannot
	// pay for its sort) or when replaying a chaos schedule that was
	// recorded under index order.
	OrderIndex OrderPolicy = iota
	// OrderCone clusters faults by the dominating output cone of their
	// site (the first primary output the site feeds), topological within
	// a cluster, so consecutive faults on a worker share fan-out cones and
	// reuse each other's cached difference functions.
	OrderCone
	// OrderLevel sorts faults by the topological level of their site
	// (distance from the primary inputs), clustering faults of equal
	// depth: a cheaper ordering than OrderCone that still groups
	// structurally similar faults.
	OrderLevel
)

// String names the policy as accepted by ParseOrderPolicy.
func (p OrderPolicy) String() string {
	switch p {
	case OrderCone:
		return "cone"
	case OrderLevel:
		return "level"
	default:
		return "index"
	}
}

// ParseOrderPolicy parses the -order flag value.
func ParseOrderPolicy(s string) (OrderPolicy, error) {
	switch s {
	case "", "index":
		return OrderIndex, nil
	case "cone":
		return OrderCone, nil
	case "level":
		return OrderLevel, nil
	}
	return OrderIndex, fmt.Errorf("analysis: unknown order policy %q (want index, cone or level)", s)
}

// schedule maps dispatch positions to original fault indices. perm[j] is
// the fault analyzed at position j; clusterStart[j] is the first position
// of the cluster containing j, letting the dispatcher align claimed
// blocks to cluster boundaries in O(1). A nil *schedule is the identity
// (index order) and adds nothing to the dispatch hot path.
type schedule struct {
	perm         []int
	clusterStart []int
}

// index maps a dispatch position to the original fault index.
func (s *schedule) index(j int) int {
	if s == nil {
		return j
	}
	return s.perm[j]
}

// trim aligns a tentative claim [lo,hi) to a cluster boundary: a block
// ending mid-cluster drops the partial trailing cluster (the next worker
// picks it up whole), unless the whole block lies inside one cluster —
// a cluster larger than the guided block size is split rather than
// serialized onto one worker. Never returns a bound at or below lo.
func (s *schedule) trim(lo, hi int) int {
	if s == nil || hi >= len(s.perm) {
		return hi
	}
	if cs := s.clusterStart[hi]; cs > lo && cs < hi {
		return cs
	}
	return hi
}

// newSchedule builds the dispatch order for a fault set. site(i) returns
// the fault's seed net in the working circuit (a branch fault's consumer
// gate, a bridge's lower wire). reach is only consulted for OrderCone.
// OrderIndex (and an empty set) returns nil: the identity schedule.
func newSchedule(policy OrderPolicy, total int, site func(i int) int, c *netlist.Circuit, reach *faults.Reachability) *schedule {
	if policy == OrderIndex || total == 0 {
		return nil
	}
	// key: the cluster a fault belongs to; ord: its rank within the
	// cluster. Original index breaks all remaining ties, keeping the
	// permutation deterministic for any fault set.
	key := make([]int, total)
	ord := make([]int, total)
	switch policy {
	case OrderLevel:
		levels := c.Levels()
		for i := 0; i < total; i++ {
			s := site(i)
			key[i], ord[i] = levels[s], s
		}
	case OrderCone:
		outs := c.Outputs
		for i := 0; i < total; i++ {
			s := site(i)
			// Dominating output cone: the first PO the site feeds. Sites
			// feeding no PO (structurally dead) share a trailing cluster.
			k := len(outs)
			for oi, po := range outs {
				if po == s || reach.Reaches(s, po) {
					k = oi
					break
				}
			}
			// Net ids are topological, so ascending id within a cone
			// group puts the shallowest sites first: the group's
			// primary-input units run before the fan-out branches
			// downstream of them. Deepest-first was measured 1.6x slower
			// on the first 120 C1908s faults and no faster elsewhere
			// (EXPERIMENTS.md, caveat 11).
			key[i], ord[i] = k, s
		}
	}
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		if key[ia] != key[ib] {
			return key[ia] < key[ib]
		}
		if ord[ia] != ord[ib] {
			return ord[ia] < ord[ib]
		}
		return ia < ib
	})
	clusterStart := make([]int, total)
	start := 0
	for j := 1; j <= total; j++ {
		if j == total || key[perm[j]] != key[perm[j-1]] {
			for p := start; p < j; p++ {
				clusterStart[p] = start
			}
			start = j
		}
	}
	return &schedule{perm: perm, clusterStart: clusterStart}
}

// stuckAtSite returns the seed net of a stuck-at fault in the working
// circuit: the consumer gate for a branch fault (differences enter at its
// input pin), the faulted net itself otherwise.
func stuckAtSite(f faults.StuckAt) int {
	if f.IsBranch() {
		return f.Gate
	}
	return f.Net
}

// siteUnits groups dispatch positions into units of work: a maximal run
// of adjacent positions whose faults sit on the same primary input is one
// unit, analyzed by one worker from a single shared propagation (see
// diffprop.Engine.StuckAtPI); every other position is a unit of one.
// Faults on one input that are adjacent in the fault list (both
// polarities, in a collapsed checkpoint list) stay adjacent under every
// OrderPolicy, since they share a cluster key and a rank, so units form
// under any dispatch order. A nil *siteUnits makes every position its
// own unit.
type siteUnits struct {
	// end[j] is one past the last position of the unit containing j.
	end []int
	// run analyzes the faults idx (two or more, in dispatch order) of one
	// unit from one shared walk and records them. shared is false when
	// nothing was recorded and the caller must analyze each fault on its
	// own; err is a fatal persistence error.
	run func(e *diffprop.Engine, w int, idx []int) (shared bool, err error)
}

// newSiteUnits builds the unit plan of a dispatch order. key(i) names the
// primary input fault i sits on, or -1 for a fault that is never grouped.
// It returns nil when no unit holds more than one fault.
func newSiteUnits(total int, sched *schedule, key func(i int) int, run func(e *diffprop.Engine, w int, idx []int) (bool, error)) *siteUnits {
	end := make([]int, total)
	grouped := false
	for j := 0; j < total; {
		k := j + 1
		if u := key(sched.index(j)); u >= 0 {
			for k < total && key(sched.index(k)) == u {
				k++
			}
		}
		grouped = grouped || k-j > 1
		for p := j; p < k; p++ {
			end[p] = k
		}
		j = k
	}
	if !grouped {
		return nil
	}
	return &siteUnits{end: end, run: run}
}

// unitEnd returns one past the last position of the unit starting at j.
func (u *siteUnits) unitEnd(j int) int {
	if u == nil {
		return j + 1
	}
	return u.end[j]
}

// align extends a claim [lo,hi) that ends inside a unit to the unit's
// end, so a unit is never split across workers.
func (u *siteUnits) align(hi int) int {
	if u == nil || hi == 0 || hi >= len(u.end) {
		return hi
	}
	return u.end[hi-1]
}
