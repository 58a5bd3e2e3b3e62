package bdd

import (
	"runtime"
	"sync"
	"sync/atomic"
)

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
//
// One variable's candidate positions are rebuilt on up to GOMAXPROCS
// goroutines, each into its own fresh manager (Transfer never mutates its
// source). The choice is made afterwards, as a serial scan would make it:
// the strictly smallest size wins, the lowest position among equal sizes,
// and the variable stays put unless some position is strictly smaller.
// The result is therefore the same at every GOMAXPROCS.
func (m *Manager) Sift(roots []Ref, maxPasses int) (*Manager, []Ref, int) {
	if maxPasses < 1 {
		maxPasses = 1
	}
	cur := New(m.t.names...)
	curRoots := m.Transfer(cur, roots...)
	best := cur.TotalSize(curRoots...)
	n := len(m.t.names)
	sizes := make([]int, n)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, v := range cur.Names() {
			// Remove v from the order once; reinsert at each position.
			without := make([]string, 0, n-1)
			curPos := -1
			for i, name := range cur.t.names {
				if name == v {
					curPos = i
					continue
				}
				without = append(without, name)
			}
			candidate := func(pos int) []string {
				order := make([]string, 0, n)
				order = append(order, without[:pos]...)
				order = append(order, v)
				return append(order, without[pos:]...)
			}
			parallelFor(n, func(pos int) {
				if pos == curPos {
					return
				}
				cand := New(candidate(pos)...)
				sizes[pos] = cand.TotalSize(cur.Transfer(cand, curRoots...)...)
			})
			bestPos, bestSize := curPos, best
			for pos, size := range sizes {
				if pos != curPos && size < bestSize {
					bestSize, bestPos = size, pos
				}
			}
			if bestPos != curPos {
				next := New(candidate(bestPos)...)
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

// parallelFor calls body(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have.
func parallelFor(n int, body func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				body(i)
			}
		}()
	}
	wg.Wait()
}
