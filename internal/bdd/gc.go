// In-place generational garbage collection.
//
// GC copies the live roots into a fresh manager under the same variable
// order and then adopts the fresh tables into the receiver's shared table
// in place, so the Manager identity (and its armed budget, logger and
// cumulative statistics) survives collection — and, when the table is
// shared, every other view sees the collected store as soon as the
// adoption completes. Callers sharing the table must hold it quiescent
// around GC (the campaign layer's analysis lock); refs held by any view
// are invalidated and per-view sat caches are dropped lazily via the
// table epoch. GC never changes the variable order.
package bdd

// GCResult reports what one collection accomplished.
type GCResult struct {
	// Before is the node count (live + garbage) when collection started.
	Before int
	// After is the live node count right after the generational copy.
	After int
}

// Reclaimed is the number of dead nodes the generational copy dropped.
func (r GCResult) Reclaimed() int { return r.Before - r.After }

// GC collects the manager in place: the functions rooted at roots are
// copied into fresh tables (dropping every node not reachable from them —
// dead apply/ite garbage from completed or aborted computations) and the
// manager adopts the result. The returned refs replace roots; all other
// refs into the table are invalidated — including refs held by other
// views, so a shared table must be quiescent. The manager identity,
// cumulative cache statistics, armed budget and node watermark survive,
// so a caller can collect mid-computation without rebinding its manager
// handle. The copy runs on the destination, which has no
// watermark armed, so GC itself can never raise ErrNodeLimit.
func (m *Manager) GC(roots []Ref) ([]Ref, GCResult) {
	res := GCResult{Before: m.NodeCount()}
	dst := New(m.t.names...)
	out := m.Transfer(dst, roots...)
	// Adopt dst's tables in place: its cache statistics merge into this
	// view's cumulative counters and its sat-count cache (whose refs are
	// the adopted table's refs) replaces ours. Other views keep their
	// budgets; the epoch bump inside adoptFrom invalidates their sat
	// caches.
	m.stats.Add(dst.stats)
	m.t.adoptFrom(dst.t)
	m.satC = dst.satC
	m.satEpoch = m.t.epoch.Load()
	res.After = m.NodeCount()
	if m.gcHook != nil {
		m.gcHook(res)
	}
	return out, res
}
