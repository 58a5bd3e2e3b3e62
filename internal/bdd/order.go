package bdd

// Sift performs Rudell-style variable sifting with a transfer-based move
// primitive: each variable in turn is tried at every position of the
// order (the candidate order is evaluated by rebuilding the roots) and
// settles where the total node count is smallest. Passes repeat until no
// variable moves or maxPasses is reached. Compared to classic in-place
// sifting this trades speed for simplicity — every candidate is built by
// the same canonical Transfer used everywhere else, so there is no
// special-cased swap code to get wrong. Intended as an offline optimizer
// for build-once engines; returns a fresh manager, the remapped roots and
// the achieved size.
func (m *Manager) Sift(roots []Ref, maxPasses int) (*Manager, []Ref, int) {
	if maxPasses < 1 {
		maxPasses = 1
	}
	cur := New(m.t.names...)
	curRoots := m.Transfer(cur, roots...)
	best := cur.TotalSize(curRoots...)
	n := len(m.t.names)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		vars := cur.Names()
		for _, v := range vars {
			base := cur.Names()
			// Remove v from the order once; reinsert at each position.
			without := make([]string, 0, n-1)
			curPos := -1
			for i, name := range base {
				if name == v {
					curPos = i
					continue
				}
				without = append(without, name)
			}
			bestPos, bestSize := curPos, cur.TotalSize(curRoots...)
			for pos := 0; pos < n; pos++ {
				if pos == curPos {
					continue
				}
				order := make([]string, 0, n)
				order = append(order, without[:pos]...)
				order = append(order, v)
				order = append(order, without[pos:]...)
				cand := New(order...)
				candRoots := cur.Transfer(cand, curRoots...)
				if size := cand.TotalSize(candRoots...); size < bestSize {
					bestSize, bestPos = size, pos
				}
			}
			if bestPos != curPos {
				order := make([]string, 0, n)
				order = append(order, without[:bestPos]...)
				order = append(order, v)
				order = append(order, without[bestPos:]...)
				next := New(order...)
				curRoots = cur.Transfer(next, curRoots...)
				cur = next
				best = bestSize
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curRoots, best
}
