// The difference kernels of Difference Propagation.
//
// At a two-input AND gate with good input functions fa, fb and input
// differences da, db (faulty input = good ⊕ difference), the output
// difference is
//
//	fa·fb ⊕ (fa⊕da)·(fb⊕db) = fa·db ⊕ fb·da ⊕ da·db
//
// (Table 1 of the method; OR gates use the same identity on the
// complemented good functions). Composed from binary operations this is
// three Ands and two Xors, four of whose results are intermediate BDDs
// that nothing else uses. DiffAnd computes the ring-sum in one Shannon
// recursion over all four operands instead, building only the result's
// nodes.
//
// BooleanDiff serves the other end of the method: with a constant-true
// difference seeded at a primary input x, every net's propagated
// difference is its Boolean difference with respect to x, which can be
// read off the net's good function in one recursion.
package bdd

import "fmt"

// DiffAnd returns fa·db ⊕ fb·da ⊕ da·db: the output difference of an AND
// gate whose inputs have good functions fa, fb and differences da, db.
// Like every operation it charges one op per recursion step against the
// armed budget (cache hits and terminal cases included) and may panic
// with ErrBudget or ErrNodeLimit between node-table mutations. Its cache
// traffic counts toward the Apply counters of CacheStats.
func (m *Manager) DiffAnd(fa, fb, da, db Ref) Ref {
	m.chargeOp()
	// Terminal rules: with a constant difference the ring-sum collapses to
	// one or two binary operations.
	switch {
	case da == False:
		if db == False {
			return False
		}
		return m.And(fa, db)
	case db == False:
		return m.And(fb, da)
	case da == True: // fa·db ⊕ fb ⊕ db
		return m.Xor(fb, m.And(fa^1, db))
	case db == True:
		return m.Xor(fa, m.And(fb^1, da))
	}
	// The ring-sum is symmetric under swapping the (fa, da) and (fb, db)
	// pairs; order them so both spellings share one cache entry.
	if db < da {
		fa, fb, da, db = fb, fa, db, da
	}
	cache := m.t.cache.Load()
	if r, ok := cache.get(fa, fb, da, db); ok {
		m.stats.ApplyHits++
		return r
	}
	m.stats.ApplyMisses++
	level := m.levelOf(fa)
	for _, x := range [...]Ref{fb, da, db} {
		if l := m.levelOf(x); l < level {
			level = l
		}
	}
	fa0, fa1 := m.cofactors(fa, level)
	fb0, fb1 := m.cofactors(fb, level)
	da0, da1 := m.cofactors(da, level)
	db0, db1 := m.cofactors(db, level)
	r := m.mk(level, m.DiffAnd(fa0, fb0, da0, db0), m.DiffAnd(fa1, fb1, da1, db1))
	cache.put(fa, fb, da, db, r)
	return r
}

// BooleanDiff returns f|x=0 ⊕ f|x=1, the Boolean difference of f with
// respect to the variable x at order position v: the set of assignments
// under which inverting x changes f. Difference Propagation seeded with a
// constant-true difference at x computes the same function gate by gate;
// this recursion reads it off f's own BDD instead, rebuilding only the
// nodes above x's level and XORing the two cofactors where x is tested.
// It shares the computed cache, so calls on functions with common
// sub-graphs (the outputs of one circuit) reuse each other's results.
// Like every operation it charges one op per recursion step against the
// armed budget (cache hits and terminal cases included) and may panic
// with ErrBudget or ErrNodeLimit between node-table mutations. Its cache
// traffic counts toward the Apply counters of CacheStats.
func (m *Manager) BooleanDiff(f Ref, v int) Ref {
	if v < 0 || v >= len(m.t.names) {
		panic(fmt.Sprintf("bdd: Boolean difference variable %d out of range", v))
	}
	return m.boolDiff(f, int32(v))
}

// boolDiff is BooleanDiff at level v. The difference of ¬f is the
// difference of f, so both polarities of a node share one cache entry.
func (m *Manager) boolDiff(f Ref, v int32) Ref {
	m.chargeOp()
	f &^= 1
	n := m.nodeOf(f)
	switch {
	case n.level > v: // terminals included: f does not depend on x
		return False
	case n.level == v:
		return m.Xor(n.low, n.high)
	}
	cache := m.t.cache.Load()
	if r, ok := cache.get(f, Ref(v), noRef, noRef); ok {
		m.stats.ApplyHits++
		return r
	}
	m.stats.ApplyMisses++
	r := m.mk(n.level, m.boolDiff(n.low, v), m.boolDiff(n.high, v))
	cache.put(f, Ref(v), noRef, noRef, r)
	return r
}
