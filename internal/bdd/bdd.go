// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in the style of Bryant (IEEE Trans. Computers, 1986) with the
// complement-edge representation of Brace, Rudell and Bryant (DAC 1990):
// negation is a tagged bit on the Ref, so Not is free, a function and its
// complement share one node set, and the unique table stores roughly half
// the nodes of the plain representation. All binary operations are
// normalized ITE standard triples served by one computed cache; the one
// four-operand operation, DiffAnd (Difference Propagation's AND/OR gate
// rule), recurses on its own and keeps a smaller cache beside it.
//
// The node store is shared: a Manager is a lightweight view (budget,
// statistics, sat-count cache, logger) over a lock-striped concurrent
// table, and Share hands out additional views so many workers can build
// on one node set at once — see table.go for the concurrency protocol.
// Quantification, composition, exact satisfying-set counting and
// manager-to-manager transfer (used for generational garbage collection
// and static variable reordering) ride on the same core.
//
// A Manager owns a set of ordered variables and (a view of) a node table.
// Functions are referred to by Ref values that are only meaningful within
// their table. The two terminals are the package-level constants False
// and True and are shared by every manager.
package bdd

import (
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sort"
	"time"
)

// ErrBudget is the sentinel raised — as a panic value, from arbitrarily
// deep inside the apply/ite recursions — when the manager's armed
// operation budget (SetBudget) is exhausted. Callers that arm a budget
// must recover it at their analysis boundary (see diffprop.Engine) and
// may keep using the manager afterwards: the panic is only raised between
// node-table mutations, so the unique table stays consistent.
var ErrBudget = errors.New("bdd: per-analysis operation budget exhausted")

// ErrNodeLimit is the sentinel raised — as a panic value, from mk, at the
// same consistent points as ErrBudget — when the manager's node table
// crosses the armed soft watermark (SetNodeLimit). It is distinguishable
// from ErrBudget so recovery code can tell "too much work" from "too much
// memory": a node-limit abort is usually garbage- or order-induced and a
// generational GC plus reordering (Manager.ReduceUnder) often rescues the
// computation, where an ops-budget abort rarely benefits.
var ErrNodeLimit = errors.New("bdd: node-count watermark exceeded")

// Ref identifies a BDD function within a Manager's table: a node id in
// the upper bits and the complement tag in bit 0. Refs are stable for the
// lifetime of the table (there is no in-place mutation; reclamation is
// done by rebuilding into a fresh manager, see Rebuild, or in place, see
// GC). Complementing a function is Ref^1 and allocates nothing.
type Ref int32

// Terminal functions, shared across managers: one terminal node (id 0)
// represents False, and True is its complement edge.
const (
	False Ref = 0
	True  Ref = 1
)

const terminalLevel = int32(1) << 30

const (
	minCacheBits = 12
	maxCacheBits = 21
)

// CacheStats counts hits and misses of the computed cache, attributed to
// the operation family that issued them: And/Or/Xor/DiffAnd feed the
// Apply counters, Ite/Compose/VectorCompose the Ite counters. Not is free
// under complement edges and never probes a cache, so its counters stay
// zero (kept for layout compatibility with aggregated historical stats). The
// counters are per-view and unsynchronized; each worker reads only its
// own.
type CacheStats struct {
	ApplyHits, ApplyMisses int64
	IteHits, IteMisses     int64
	NotHits, NotMisses     int64
}

// Add accumulates other into s (used to aggregate across managers, e.g.
// over generational rebuilds or parallel workers).
func (s *CacheStats) Add(other CacheStats) {
	s.ApplyHits += other.ApplyHits
	s.ApplyMisses += other.ApplyMisses
	s.IteHits += other.IteHits
	s.IteMisses += other.IteMisses
	s.NotHits += other.NotHits
	s.NotMisses += other.NotMisses
}

// HitRate returns the overall cache hit fraction (0 when no probes ran).
func (s CacheStats) HitRate() float64 {
	hits := s.ApplyHits + s.IteHits + s.NotHits
	total := hits + s.ApplyMisses + s.IteMisses + s.NotMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Manager is a view over a (possibly shared) BDD node table: the armed
// resource budget, node watermark, cache statistics, sat-count cache and
// logger are per-view, while nodes, the unique table and the computed
// cache live in the shared table. A single view is not safe for
// concurrent use; distinct views over one table are (Share).
type Manager struct {
	t *table

	stats CacheStats

	// Armed resource budget (SetBudget): ops counts charged operations
	// since arming; budgetOps > 0 caps them, and a non-zero deadline is
	// checked every deadlineMask+1 charges (the mask shrinks as the
	// deadline approaches, bounding the wall-clock overshoot).
	ops          int64
	budgetOps    int64
	deadline     time.Time
	deadlineMask int64

	// nodeLimit, when positive, is the soft node-count watermark: mk panics
	// with ErrNodeLimit once the shared table would grow past it
	// (SetNodeLimit).
	nodeLimit int

	// chaosAt/chaosErr are the chaos-injection seam (SetChaosAbort): when
	// chaosAt > 0, chargeOp panics with chaosErr once ops reaches chaosAt,
	// then disarms itself. Zero when the harness is off, leaving one
	// predictable branch on the charge path.
	chaosAt  int64
	chaosErr error

	// log receives structured manager events; nil = silent.
	log *slog.Logger

	// gcHook, when non-nil, observes each completed GC/ReduceUnder pass
	// (SetGCHook) — the flight-recorder seam. Per-view, like the logger.
	gcHook func(GCResult)

	// satC caches satisfying-set counts keyed by regular (uncomplemented)
	// ref, normalized to each node's own level. satEpoch tracks the table
	// epoch the cache was filled under; an in-place adoption (GC/sift)
	// bumps the table epoch and invalidates the cache lazily.
	satC     map[Ref]*big.Int
	satEpoch uint64
}

// SetLogger attaches a structured logger for manager events. A nil logger
// silences them (the default).
func (m *Manager) SetLogger(log *slog.Logger) { m.log = log }

// SetGCHook registers an observer for completed GC and ReduceUnder
// passes: the hook receives each pass's final GCResult, exactly once per
// public collection call. The hook runs on the collecting goroutine with
// the table quiescent, so it must be cheap and must not touch the
// manager. A nil hook disables it (the default). Per-view, like the
// logger: each worker engine installs its own.
func (m *Manager) SetGCHook(hook func(GCResult)) { m.gcHook = hook }

// deadlineCheckMask throttles the wall-clock check of an armed budget to
// one time.Now() call per 1024 charged operations. Once the deadline is
// within deadlineNear, the throttle tightens to deadlineNearMask (one
// check per 64 charges): at full throttle a burst of cheap charges can
// overshoot Wall by the whole inter-check gap, which matters exactly when
// little time remains.
const (
	deadlineCheckMask = 0x3FF
	deadlineNearMask  = 0x3F
	deadlineNear      = time.Millisecond
)

// SetBudget arms a resource budget for the analyses that follow: the
// manager aborts with a panic(ErrBudget) once it charges more than ops
// operations (ops <= 0 leaves the count unlimited) or passes the deadline
// (zero time disables the clock). Arming resets the charged operation
// counter, so callers arm once per unit of work (per fault). One
// operation is charged per ITE or DiffAnd step — a machine-independent
// proxy for the nodes an analysis builds and visits that stays
// meaningful when the computed cache is shared and warm.
func (m *Manager) SetBudget(ops int64, deadline time.Time) {
	m.budgetOps = ops
	m.deadline = deadline
	m.deadlineMask = deadlineCheckMask
	m.ops = 0
	// A chaos abort is armed relative to the charge meter this reset just
	// zeroed; a stale threshold would fire against the wrong analysis.
	m.chaosAt, m.chaosErr = 0, nil
}

// SetChaosAbort arms a one-shot forced abort for the chaos-injection
// harness: once the charge meter reaches at (counting from the last
// SetBudget), chargeOp panics with err — ErrBudget or ErrNodeLimit, so
// the abort is indistinguishable from a genuine resource blow — and the
// trigger disarms itself. at <= 0 disarms. SetBudget also disarms, since
// it resets the meter the threshold is relative to.
func (m *Manager) SetChaosAbort(at int64, err error) {
	if at <= 0 {
		m.chaosAt, m.chaosErr = 0, nil
		return
	}
	if err == nil {
		err = ErrBudget
	}
	m.chaosAt, m.chaosErr = at, err
}

// SetNodeLimit arms (n > 0) or disarms (n <= 0) the node-count soft
// watermark: once the node table would grow past n nodes, mk panics with
// ErrNodeLimit. Like ErrBudget, the panic fires only between node-table
// mutations, so callers that recover it at their analysis boundary may
// keep using the manager; Manager.GC or ReduceUnder then reclaims the
// garbage the aborted computation left behind. The watermark is per-view:
// other views sharing the table keep their own.
func (m *Manager) SetNodeLimit(n int) {
	if n < 0 {
		n = 0
	}
	m.nodeLimit = n
}

// NodeLimit reports the armed node-count watermark (0 = disarmed).
func (m *Manager) NodeLimit() int { return m.nodeLimit }

// ClearBudget disarms any armed budget.
func (m *Manager) ClearBudget() { m.SetBudget(0, time.Time{}) }

// OpsCharged reports the operations charged since the last SetBudget (or
// manager creation).
func (m *Manager) OpsCharged() int64 { return m.ops }

// TableLoad reports the unique table's occupancy: resident nodes and
// hash-bucket capacity summed over all shards. nodes/buckets is the load
// factor the timeline sampler plots. Safe for concurrent use: it briefly
// takes each shard's insert mutex in turn, so a shard's node count and
// its published bucket array are read together; the sums across shards
// are not a single snapshot — fine for telemetry.
func (m *Manager) TableLoad() (nodes, buckets int64) {
	for i := range m.t.shards {
		s := &m.t.shards[i]
		s.mu.Lock()
		nodes += int64(s.count)
		buckets += int64(len(*s.buckets.Load()))
		s.mu.Unlock()
	}
	return nodes, buckets
}

// chargeOp records one operation against the armed budget, aborting with
// panic(ErrBudget) when the budget is blown. It is called only at points
// where the node store is consistent.
func (m *Manager) chargeOp() {
	m.ops++
	if m.budgetOps > 0 && m.ops > m.budgetOps {
		panic(ErrBudget)
	}
	if m.chaosAt > 0 && m.ops >= m.chaosAt {
		err := m.chaosErr
		m.chaosAt, m.chaosErr = 0, nil
		panic(err)
	}
	if m.ops&m.deadlineMask == 0 && !m.deadline.IsZero() {
		now := time.Now()
		if now.After(m.deadline) {
			panic(ErrBudget)
		}
		if m.deadlineMask != deadlineNearMask && m.deadline.Sub(now) < deadlineNear {
			m.deadlineMask = deadlineNearMask
		}
	}
}

// CacheStats reports this view's computed-cache hit/miss counters
// accumulated since the view was created.
func (m *Manager) CacheStats() CacheStats { return m.stats }

// New creates a manager over the named variables, ordered as given.
// Variable names must be unique and non-empty.
func New(names ...string) *Manager {
	nameIdx := make(map[string]int, len(names))
	for i, n := range names {
		if n == "" {
			panic("bdd: empty variable name")
		}
		if _, dup := nameIdx[n]; dup {
			panic(fmt.Sprintf("bdd: duplicate variable name %q", n))
		}
		nameIdx[n] = i
	}
	t := newTable(append([]string(nil), names...), nameIdx)
	return &Manager{
		t:            t,
		deadlineMask: deadlineCheckMask,
		satC:         make(map[Ref]*big.Int),
	}
}

// NewAnon creates a manager with n anonymous variables named x0..x(n-1).
func NewAnon(n int) *Manager {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return New(names...)
}

// Share returns a fresh view over the manager's table: same nodes, same
// variable order, same computed cache, but independent budget, node
// watermark, statistics and sat-count cache. Views may be used from
// different goroutines concurrently; handing the new view to another
// goroutine is itself the synchronizing edge for every Ref created so
// far.
func (m *Manager) Share() *Manager {
	m.t.views.Add(1)
	return &Manager{
		t:            m.t,
		deadlineMask: deadlineCheckMask,
		satC:         make(map[Ref]*big.Int),
		satEpoch:     m.t.epoch.Load(),
	}
}

// Views reports how many Manager views were handed out over this
// manager's table (including the original).
func (m *Manager) Views() int { return int(m.t.views.Load()) }

// TableEpoch reports the table's adoption epoch: the number of in-place
// GC/sift generations the shared store has gone through.
func (m *Manager) TableEpoch() uint64 { return m.t.epoch.Load() }

// setCacheBits pins the ITE cache to 1<<bits entries (the DiffAnd cache
// to its usual fraction of that) and disables automatic growth (test
// hook: tiny caches force collision evictions).
func (m *Manager) setCacheBits(bits uint) {
	m.t.growMu.Lock()
	m.t.noGrow = true
	m.t.cache.Store(newOpCache(bits))
	m.t.growMu.Unlock()
}

// NumVars reports the number of variables in the manager.
func (m *Manager) NumVars() int { return len(m.t.names) }

// VarName returns the name of the variable at order position i.
func (m *Manager) VarName(i int) string { return m.t.names[i] }

// VarIndex returns the order position of the named variable, or -1.
func (m *Manager) VarIndex(name string) int {
	if i, ok := m.t.nameIdx[name]; ok {
		return i
	}
	return -1
}

// Names returns a copy of the variable order.
func (m *Manager) Names() []string { return append([]string(nil), m.t.names...) }

// NodeCount reports the total number of live nodes in the shared table,
// including the terminal.
func (m *Manager) NodeCount() int { return int(m.t.count.Load()) }

// Var returns the function of the single variable at order position i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= len(m.t.names) {
		panic(fmt.Sprintf("bdd: variable index %d out of range [0,%d)", i, len(m.t.names)))
	}
	return m.t.vars[i] ^ 1
}

// NVar returns the complemented single-variable function ¬x_i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= len(m.t.names) {
		panic(fmt.Sprintf("bdd: variable index %d out of range [0,%d)", i, len(m.t.names)))
	}
	return m.t.vars[i]
}

// VarNamed returns the function of the named variable.
func (m *Manager) VarNamed(name string) Ref {
	i := m.VarIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("bdd: unknown variable %q", name))
	}
	return m.Var(i)
}

// Const returns the terminal for the given boolean.
func Const(b bool) Ref {
	if b {
		return True
	}
	return False
}

// IsConst reports whether f is a terminal.
func IsConst(f Ref) bool { return f&^1 == 0 }

// nodeOf returns the payload of f's node (complement bit ignored).
func (m *Manager) nodeOf(f Ref) *node { return m.t.node(int32(f) >> 1) }

// levelOf returns the decision level of f (terminalLevel for terminals).
func (m *Manager) levelOf(f Ref) int32 { return m.nodeOf(f).level }

// Level exposes the variable order position tested at the root of f,
// or -1 for terminals.
func (m *Manager) Level(f Ref) int {
	l := m.levelOf(f)
	if l == terminalLevel {
		return -1
	}
	return int(l)
}

// Low returns the else-cofactor of f as a function (complement edges
// resolved). For a terminal it returns f itself.
func (m *Manager) Low(f Ref) Ref { return m.nodeOf(f).low ^ (f & 1) }

// High returns the then-cofactor of f as a function (complement edges
// resolved). For a terminal it returns f itself.
func (m *Manager) High(f Ref) Ref { return m.nodeOf(f).high ^ (f & 1) }

// mk returns the canonical ref for the node (level, low, high), applying
// the reduction rules (redundant tests collapse, identical nodes are
// shared) and the complement-edge normalization: the then edge must be
// regular, so a complemented high is pushed through the node and onto the
// returned ref.
func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	if high&1 != 0 {
		return m.t.mkRaw(m.nodeLimit, level, low^1, high^1) ^ 1
	}
	return m.t.mkRaw(m.nodeLimit, level, low, high)
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref {
	return m.ite(f, g, False, &m.stats.ApplyHits, &m.stats.ApplyMisses)
}

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref {
	return m.ite(f, True, g, &m.stats.ApplyHits, &m.stats.ApplyMisses)
}

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref {
	return m.ite(f, g^1, g, &m.stats.ApplyHits, &m.stats.ApplyMisses)
}

// Not returns ¬f. Under complement edges this is a bit flip: no node is
// built, no cache is probed, and no budget is charged.
func (m *Manager) Not(f Ref) Ref { return f ^ 1 }

// Nand returns ¬(f ∧ g).
func (m *Manager) Nand(f, g Ref) Ref { return m.Not(m.And(f, g)) }

// Nor returns ¬(f ∨ g).
func (m *Manager) Nor(f, g Ref) Ref { return m.Not(m.Or(f, g)) }

// Xnor returns ¬(f ⊕ g).
func (m *Manager) Xnor(f, g Ref) Ref { return m.Not(m.Xor(f, g)) }

// Implies returns ¬f ∨ g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Or(m.Not(f), g) }

// Diff returns f ∧ ¬g (set difference).
func (m *Manager) Diff(f, g Ref) Ref { return m.And(f, m.Not(g)) }

// AndN folds And over its arguments (True for no arguments).
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
	}
	return acc
}

// OrN folds Or over its arguments (False for no arguments).
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
	}
	return acc
}

// XorN folds Xor over its arguments (False for no arguments).
func (m *Manager) XorN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Xor(acc, f)
	}
	return acc
}

// Ite returns if-then-else: (f ∧ g) ∨ (¬f ∧ h).
func (m *Manager) Ite(f, g, h Ref) Ref {
	return m.ite(f, g, h, &m.stats.IteHits, &m.stats.IteMisses)
}

// iteLess orders two refs for the commutativity normalizations: first by
// level, then by node id (ignoring complement bits, which the rewrite
// rules account for separately).
func (m *Manager) iteLess(a, b Ref) bool {
	la, lb := m.levelOf(a), m.levelOf(b)
	if la != lb {
		return la < lb
	}
	return a&^1 < b&^1
}

// ite computes ITE(f, g, h) with standard-triple normalization: terminal
// rules first, then equivalent-triple rewrites that canonicalize argument
// order (so e.g. f∧g and g∧f share one cache line), then the
// complement-edge normalization that makes the first argument and the
// then argument regular. One operation is charged per entry — including
// cache hits — so an armed budget bounds work deterministically even when
// the shared cache is warm. hits/misses point at the issuing operation
// family's counters.
func (m *Manager) ite(f, g, h Ref, hits, misses *int64) Ref {
	m.chargeOp()
	// Terminal rules.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	}
	// Arguments that repeat f collapse to constants along f's branch.
	if g == f {
		g = True
	} else if g == f^1 {
		g = False
	}
	if h == f {
		h = False
	} else if h == f^1 {
		h = True
	}
	switch {
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f ^ 1
	}
	// Equivalent-triple rewrites: pull the smallest operand into the first
	// position wherever the operation commutes.
	switch {
	case h == False: // f ∧ g
		if m.iteLess(g, f) {
			f, g = g, f
		}
	case g == True: // f ∨ h
		if m.iteLess(h, f) {
			f, h = h, f
		}
	case h == True: // ¬f ∨ g == ¬g ∨ ¬(¬f)... ITE(f,g,1) == ITE(¬g,¬f,1)
		if m.iteLess(g, f) {
			f, g = g^1, f^1
		}
	case g == False: // ¬f ∧ h; ITE(f,0,h) == ITE(¬h,0,¬f)
		if m.iteLess(h, f) {
			f, h = h^1, f^1
		}
	case h == g^1: // f XNOR g; ITE(f,g,¬g) == ITE(g,f,¬f)
		if m.iteLess(g, f) {
			f, g, h = g, f, f^1
		}
	}
	// Complement normalization: a complemented first argument swaps the
	// branches; a complemented then argument complements the result.
	if f&1 != 0 {
		f ^= 1
		g, h = h, g
	}
	var neg Ref
	if g&1 != 0 {
		neg = 1
		g ^= 1
		h ^= 1
	}
	cache := m.t.cache.Load()
	if r, ok := cache.get(f, g, h); ok {
		*hits++
		return r ^ neg
	}
	*misses++
	level := m.levelOf(f)
	if l := m.levelOf(g); l < level {
		level = l
	}
	if l := m.levelOf(h); l < level {
		level = l
	}
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	h0, h1 := m.cofactors(h, level)
	r := m.mk(level, m.ite(f0, g0, h0, hits, misses), m.ite(f1, g1, h1, hits, misses))
	cache.put(f, g, h, r)
	return r ^ neg
}

// cofactors returns the (low, high) cofactors of f with respect to the
// variable at 'level'; if f does not test that variable both are f.
func (m *Manager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.nodeOf(f)
	if n.level == level {
		c := f & 1
		return n.low ^ c, n.high ^ c
	}
	return f, f
}

// Eval evaluates f under the assignment (one bool per variable, in order).
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	if len(assignment) != len(m.t.names) {
		panic(fmt.Sprintf("bdd: assignment has %d values, want %d", len(assignment), len(m.t.names)))
	}
	for !IsConst(f) {
		n := m.nodeOf(f)
		c := f & 1
		if assignment[n.level] {
			f = n.high ^ c
		} else {
			f = n.low ^ c
		}
	}
	return f == True
}

// Size reports the number of distinct nodes reachable from f, including
// the terminal. A function and its complement share every node, so
// Size(f) == Size(Not(f)).
func (m *Manager) Size(f Ref) int { return m.TotalSize(f) }

// Support returns the sorted order positions of the variables f depends on.
func (m *Manager) Support(f Ref) []int {
	seen := map[int32]struct{}{}
	vars := map[int32]struct{}{}
	var walk func(Ref)
	walk = func(r Ref) {
		id := int32(r) >> 1
		if id == 0 {
			return
		}
		if _, ok := seen[id]; ok {
			return
		}
		seen[id] = struct{}{}
		n := m.t.node(id)
		vars[n.level] = struct{}{}
		walk(n.low)
		walk(n.high)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// SupportSize returns the number of variables f depends on. The paper's
// Figure 5 classification uses SupportSize == 0 at a bridging-fault site to
// identify bridging faults with stuck-at (constant) behavior.
func (m *Manager) SupportSize(f Ref) int { return len(m.Support(f)) }

// String renders a short human-readable description of f.
func (m *Manager) String(f Ref) string {
	switch f {
	case False:
		return "false"
	case True:
		return "true"
	}
	return fmt.Sprintf("bdd(%s; %d nodes)", m.t.names[m.levelOf(f)], m.Size(f))
}
