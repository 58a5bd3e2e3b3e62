package bdd

import "fmt"

// Transfer copies the functions rooted at refs from m into dst, returning
// the corresponding refs in dst. Variables are matched by name, so dst may
// use a different order (the copy is rebuilt through ITE in that case) or a
// superset of m's variables. Every variable of m must exist in dst. When
// dst is a view over the same table as m (Share), the refs are already
// valid there and are returned as-is.
//
// When source and destination share the variable order (the structural-copy
// fast path), cached satisfying-set counts of the transferred nodes are
// carried over too: node levels are preserved, so the counts — which are
// normalized to each node's own level — stay valid. The carry walks the
// transfer memo table, so its cost scales with the number of transferred
// nodes, not with the size of the source's sat cache. This keeps syndrome
// and detectability counting warm across generational rebuilds.
// Transfer reads but never mutates the source manager, so many
// destinations may be filled from one source concurrently.
//
// Any operation budget or node watermark armed on dst is suspended for
// the duration of the copy and restored afterwards: a transfer is
// bookkeeping, not analysis work, and must not abort half-way with
// ErrBudget/ErrNodeLimit leaving the caller with a partial copy.
func (m *Manager) Transfer(dst *Manager, refs ...Ref) []Ref {
	if dst.t == m.t {
		return append([]Ref(nil), refs...)
	}
	savedOps, savedBudget := dst.ops, dst.budgetOps
	savedLimit := dst.nodeLimit
	savedChaosAt, savedChaosErr := dst.chaosAt, dst.chaosErr
	dst.budgetOps, dst.nodeLimit = 0, 0
	dst.chaosAt, dst.chaosErr = 0, nil
	defer func() {
		dst.ops, dst.budgetOps = savedOps, savedBudget
		dst.nodeLimit = savedLimit
		dst.chaosAt, dst.chaosErr = savedChaosAt, savedChaosErr
	}()

	varMap := make([]Ref, len(m.t.names))
	sameOrder := len(m.t.names) == len(dst.t.names)
	for i, name := range m.t.names {
		j := dst.VarIndex(name)
		if j < 0 {
			panic(fmt.Sprintf("bdd: transfer target lacks variable %q", name))
		}
		varMap[i] = dst.Var(j)
		if j != i {
			sameOrder = false
		}
	}
	// memo maps source node ids to the dst ref of the node's regular
	// function; complement bits are re-applied per edge.
	memo := map[int32]Ref{0: False}
	var recID func(int32) Ref
	rec := func(r Ref) Ref { return recID(int32(r)>>1) ^ (r & 1) }
	if sameOrder {
		// Fast path: identical order, structural copy. The stored high edge
		// is regular, so the copied node is already in canonical
		// complement-edge form and recID stays closed over regular refs.
		recID = func(id int32) Ref {
			if out, ok := memo[id]; ok {
				return out
			}
			n := m.t.node(id)
			out := dst.mk(n.level, rec(n.low), rec(n.high))
			memo[id] = out
			return out
		}
	} else {
		recID = func(id int32) Ref {
			if out, ok := memo[id]; ok {
				return out
			}
			n := m.t.node(id)
			out := dst.Ite(varMap[n.level], rec(n.high), rec(n.low))
			memo[id] = out
			return out
		}
	}
	out := make([]Ref, len(refs))
	for i, r := range refs {
		out[i] = rec(r)
	}
	if sameOrder {
		// Carry cached sat counts for every node that made the trip. The
		// *big.Int values are shared: SatCount treats stored counts as
		// immutable, so aliasing across managers is safe.
		m.syncSatEpoch()
		dst.syncSatEpoch()
		for id, dstRef := range memo {
			if id == 0 {
				continue
			}
			if count, ok := m.satC[Ref(id)<<1]; ok {
				if _, have := dst.satC[dstRef]; !have {
					dst.satC[dstRef] = count
				}
			}
		}
	}
	return out
}

// TotalSize reports the number of distinct nodes reachable from the union
// of the given roots (shared nodes counted once, the terminal included).
// Under complement edges a function and its complement share every node,
// so both polarities of a root contribute the same set.
func (m *Manager) TotalSize(roots ...Ref) int {
	seen := map[int32]struct{}{}
	var walk func(Ref)
	walk = func(r Ref) {
		id := int32(r) >> 1
		if _, ok := seen[id]; ok {
			return
		}
		seen[id] = struct{}{}
		if id == 0 {
			return
		}
		n := m.t.node(id)
		walk(n.low)
		walk(n.high)
	}
	for _, r := range roots {
		walk(r)
	}
	return len(seen)
}
