// Package diffprop implements Difference Propagation, the paper's core
// contribution (§3): an OBDD-based functional analysis that computes, for
// any logical fault, the complete test set as a Boolean function of the
// primary inputs and therefore the exact detection probability.
//
// For every net i the engine holds the good function f_i. A fault defines
// a difference function Δf_i = f_i ⊕ F_i (good XOR faulty) at its site;
// the engine propagates differences toward the primary outputs using the
// ring-sum identities of Table 1, which need only the good functions and
// the input differences:
//
//	AND/NAND: ΔC = f_A·Δ_B ⊕ f_B·Δ_A ⊕ Δ_A·Δ_B
//	OR/NOR:   ΔC = ¬f_A·Δ_B ⊕ ¬f_B·Δ_A ⊕ Δ_A·Δ_B
//	XOR/XNOR: ΔC = Δ_A ⊕ Δ_B
//	NOT/BUFF: ΔC = Δ_A
//
// (output inversion leaves a difference unchanged). Gates with more than
// two inputs are decomposed into two-input trees first, exactly as §3
// prescribes, and — in the manner of selective trace — a gate is only
// evaluated while some input difference is non-zero. With one non-zero
// input difference the AND/OR rule is a single And; with two, where
// fan-out reconverges, it is one call of the fused bdd.Manager.DiffAnd
// kernel, which builds the ring-sum without its intermediate products.
package diffprop

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// Recovery configures the engine's graceful-recovery ladder — what happens
// between "a fault analysis blew a resource bound" and "degrade it to a
// simulation estimate":
//
//  1. the manager is garbage-collected in place around the good functions
//     (always, it is what Recover has always done);
//  2. when RetryMultiplier > 1, the caller may re-attempt the fault once
//     under bounds scaled by the multiplier (see RelaxBudget).
//
// The zero value disables the watermark and the retry rung. No rung
// changes the variable order: it is fixed when New builds the engine.
type Recovery struct {
	// NodeLimit arms a per-analysis BDD node-count soft watermark: an
	// analysis that would grow the table past it aborts with
	// bdd.ErrNodeLimit and enters the ladder. The armed limit is raised to
	// 1.5x the live node count when the configured value leaves no
	// headroom, so the good functions alone can never trip it. 0 disarms.
	NodeLimit int
	// RetryMultiplier scales the fault budget and NodeLimit for a single
	// relaxed re-attempt of a blown fault (values <= 1 disable the retry
	// rung).
	RetryMultiplier float64
}

// Options configures an Engine.
type Options struct {
	// Order lists the primary input names in BDD variable order. Empty
	// selects the committed order of a catalog circuit (ordertable.go)
	// and, for any other netlist, the DFS-from-outputs heuristic
	// (DFSOrder), which interleaves related inputs; pass
	// Circuit.InputNames() to force the benchmark declaration order the
	// paper used.
	Order []string
	// RebuildLimit triggers generational garbage collection of the BDD
	// manager when the node table exceeds this size. Zero selects a
	// default.
	RebuildLimit int
}

// Engine analyzes one circuit. A single Engine is not safe for concurrent
// use, but Share hands out additional engines over the same shared BDD
// table that may run on other goroutines (each bracketing its fault
// queries with AnalysisLock). Results returned by Engine methods hold BDD
// references that stay valid only until the next Engine call (the engine
// may compact its manager between faults).
type Engine struct {
	// Circuit is the two-input working copy of the analyzed circuit; all
	// fault sites passed to the engine must refer to ITS net numbering.
	Circuit *netlist.Circuit

	m            *bdd.Manager
	good         []bdd.Ref
	rebuildLimit int
	rebuilds     int

	syndromes []float64
	synValid  []bool

	// varToInput maps each BDD variable position to its primary-input
	// declaration index. No collection or recovery rung reorders the
	// variables, so the mapping is fixed by New and aliased by every Share
	// view.
	varToInput []int

	// reach is the fan-out reachability table: one packed bitset row per
	// net, built once in New and aliased by every Share view. It
	// doubles as the levelized cone index behind the worklist propagation
	// (rows are in topological order by construction) and as the O(1)
	// feedback screen for bridging faults.
	reach *faults.Reachability

	// support answers StuckAtPI's structural figures without a walk; it is
	// filled on first use and, like reach, aliased by every Share view.
	support *piSupport

	// fullScan forces the reference full-gate-scan propagation instead of
	// the cone-restricted worklist. The two are bit-identical; only the
	// in-package differential tests set it, to use the scan as the
	// worklist's oracle.
	fullScan bool

	// coneBuf and deltaBuf are per-view scratch for the worklist
	// propagation: the merged fan-out-cone bitset of the current fault's
	// seed sites, and the per-net difference functions (bdd.False = none).
	// Both are cleaned between analyses by walking the cone bits only, so
	// per-fault cost stays O(|cone|), not O(|circuit|).
	coneBuf  []uint64
	deltaBuf []bdd.Ref

	// notMemo caches complements of good functions for forced sites within
	// one analysis (cleared by begin). Complement edges make Not itself
	// free, but multi-fault seeds re-derive the same forced difference once
	// per consuming pin; the memo bounds that to once per site per fault.
	notMemo map[int]bdd.Ref

	// faultBudget caps the BDD operations each analysis may charge (0 =
	// unlimited, see SetFaultBudget); recovery configures the ladder run
	// when a bound fires (SetRecovery).
	faultBudget int64
	recovery    Recovery

	// shared is non-nil for engines created by (or used as the source of)
	// Share: the read/write lock the views over one BDD table coordinate
	// through, matching the table's concurrency contract. Fault analyses
	// (which only add nodes) run under the read side, concurrently;
	// in-place GC (which re-roots the table) under the write side. The good
	// slice is aliased across all views and rebound in place, so a GC by
	// one view re-roots every other view at once.
	shared *sync.RWMutex

	// phaseClock, when set, timestamps the three phases of each analysis
	// (difference build, propagation, satisfying-set count) into
	// lastPhases. Off by default: it adds time.Now calls to the hot path.
	phaseClock bool
	phaseStart time.Time
	lastPhases PhaseTimes

	// lastAbortOps records the BDD operations the most recent aborted
	// analysis had charged when its budget fired (captured by Recover).
	lastAbortOps int64

	// chaosAt/chaosErr hold a pending one-shot chaos abort armed by
	// ArmChaosAbort for the NEXT analysis; begin transfers it to the
	// manager and clears it, so a recovery-ladder retry of the same fault
	// runs clean.
	chaosAt  int64
	chaosErr error

	// Runtime counters (see Stats). Cache statistics live on the manager:
	// the in-place GC merges retired tables' counters into it, so
	// m.CacheStats() is cumulative across compactions.
	gateEvals      int64
	analyses       int
	peakNodes      int
	nodesReclaimed int64

	// gatesVisited/gatesSkipped split each analysis's gate walk: visited
	// gates entered the propagation loop (the fault's merged cone under the
	// worklist, every gate under the full scan); skipped gates were proven
	// unreachable from the seed sites and never touched. lastConeGates is
	// the visited count of the most recent analysis (the cone-size sample
	// behind the obs histogram).
	gatesVisited  int64
	gatesSkipped  int64
	lastConeGates int
}

// PhaseTimes breaks one fault analysis into the engine's phases:
// difference-function construction, selective-trace propagation, and the
// satisfying-set count that yields the detectability.
type PhaseTimes struct {
	Build, Propagate, SatCount time.Duration
}

// EnablePhaseTiming toggles per-analysis phase timestamps (see
// LastPhases). Off by default because it adds clock reads to every fault.
func (e *Engine) EnablePhaseTiming(on bool) { e.phaseClock = on }

// LastPhases returns the phase breakdown of the most recent analysis.
// Zero unless EnablePhaseTiming(true) was called; partially filled when
// the analysis aborted mid-phase.
func (e *Engine) LastPhases() PhaseTimes { return e.lastPhases }

// LastAbortOps reports how many BDD operations the most recently aborted
// analysis had charged when its budget fired (captured by Recover).
func (e *Engine) LastAbortOps() int64 { return e.lastAbortOps }

// AnalysisOps reports the BDD operations charged by the most recent
// analysis: every query re-arms the charge meter at its start, so after a
// completed query this is that query's own cost — the sample budget
// self-calibration learns from. After an aborted query (post-Recover) the
// meter is reset; use LastAbortOps for the aborted attempt's count.
func (e *Engine) AnalysisOps() int64 { return e.m.OpsCharged() }

// ArmChaosAbort schedules a one-shot forced abort for the next analysis
// on this engine: its manager will panic with err (bdd.ErrBudget or
// bdd.ErrNodeLimit; nil selects bdd.ErrBudget) once the analysis charges
// atOps operations. The trigger is consumed when the next analysis
// begins, so a recovery-ladder retry of the aborted fault runs clean —
// which is exactly what makes chaos-rescued records bit-identical to an
// uninjected run. atOps <= 0 clears a pending trigger. Chaos-injection
// seam; no-op in normal operation.
func (e *Engine) ArmChaosAbort(atOps int64, err error) {
	if atOps <= 0 {
		e.chaosAt, e.chaosErr = 0, nil
		return
	}
	e.chaosAt, e.chaosErr = atOps, err
}

// Stats is a snapshot of an engine's runtime counters: how much work the
// per-fault analyses actually did, how the BDD substrate behaved, and how
// often the generational GC ran. Aggregated across workers into
// analysis.CampaignStats.
type Stats struct {
	// Analyses counts difference propagations run: one per fault query,
	// and one per StuckAtPI call however many polarities it serves.
	Analyses int
	// GateEvaluations totals, per fault served, the gates whose difference
	// function was computed (selective trace skipped the rest). StuckAtPI
	// computes none but credits each polarity the count its result reports
	// (the gates a walk from the input would evaluate), so the total
	// equals the sum of the results' GatesEvaluated.
	GateEvaluations int64
	// GatesVisited totals, per fault served, the gates the propagation
	// loop examined and GatesSkipped the gates it never touched: under the
	// cone-restricted worklist only the seed sites' merged fan-out cone is
	// visited, so Visited+Skipped = faults x gate count and Skipped
	// measures the walk work the cone index saved over the full scan
	// (which visits every gate, skipping none). StuckAtPI walks no gate:
	// each fault it serves counts every gate as skipped.
	GatesVisited int64
	GatesSkipped int64
	// Rebuilds counts generational GC passes of the BDD manager.
	Rebuilds int
	// NodesReclaimed totals the dead nodes those GC passes dropped.
	NodesReclaimed int64
	// PeakNodes is the largest node count the manager reached.
	PeakNodes int
	// Cache aggregates apply/ite/not cache hits and misses, including
	// managers retired by compaction.
	Cache bdd.CacheStats
}

// Merge folds another engine's counters into s: additive counters sum,
// PeakNodes takes the maximum (it is a high-water mark, not a total), and
// the cache stats accumulate. This is THE aggregation rule for combining
// per-engine stats — campaign-level aggregation must use it so parallel
// totals equal the sum of their parts.
func (s *Stats) Merge(other Stats) {
	s.Analyses += other.Analyses
	s.GateEvaluations += other.GateEvaluations
	s.GatesVisited += other.GatesVisited
	s.GatesSkipped += other.GatesSkipped
	s.Rebuilds += other.Rebuilds
	s.NodesReclaimed += other.NodesReclaimed
	if other.PeakNodes > s.PeakNodes {
		s.PeakNodes = other.PeakNodes
	}
	s.Cache.Add(other.Cache)
}

// Stats returns the engine's runtime counters accumulated so far.
func (e *Engine) Stats() Stats {
	peak := e.peakNodes
	if nc := e.m.NodeCount(); nc > peak {
		peak = nc
	}
	return Stats{
		Analyses:        e.analyses,
		GateEvaluations: e.gateEvals,
		GatesVisited:    e.gatesVisited,
		GatesSkipped:    e.gatesSkipped,
		Rebuilds:        e.rebuilds,
		NodesReclaimed:  e.nodesReclaimed,
		PeakNodes:       peak,
		Cache:           e.m.CacheStats(),
	}
}

// LastConeGates returns the number of gates the most recent analysis's
// propagation loop visited: the fault's merged fan-out-cone size under
// the worklist, the full gate count under the scan reference, zero after
// StuckAtPI, which walks none. This is the per-fault sample behind the
// campaign cone-size histogram.
func (e *Engine) LastConeGates() int { return e.lastConeGates }

// GateWalk returns the engine's cumulative propagation-walk footprint:
// gates the loops examined and gates cone restriction never touched.
// Cheaper than Stats for per-fault delta accounting.
func (e *Engine) GateWalk() (visited, skipped int64) {
	return e.gatesVisited, e.gatesSkipped
}

// New builds an engine for the circuit. The circuit is decomposed to
// two-input gates internally (original net names are preserved, so
// NetByName lookups carry over); use Engine.Circuit for fault generation.
func New(c *netlist.Circuit, opts *Options) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("diffprop: %v", err)
	}
	work := c.Decompose2()
	var order []string
	if opts != nil && len(opts.Order) > 0 {
		order = opts.Order
		if len(order) != len(work.Inputs) {
			return nil, fmt.Errorf("diffprop: order has %d names for %d inputs", len(order), len(work.Inputs))
		}
	} else if order = tableOrder(work); order == nil {
		order = DFSOrder(work)
	}
	m := bdd.New(order...)
	limit := 4 << 20
	if opts != nil && opts.RebuildLimit > 0 {
		limit = opts.RebuildLimit
	}
	e := &Engine{
		Circuit:      work,
		m:            m,
		rebuildLimit: limit,
		syndromes:    make([]float64, work.NumNets()),
		synValid:     make([]bool, work.NumNets()),
	}
	e.good = make([]bdd.Ref, work.NumNets())
	for id, g := range work.Gates {
		switch g.Type {
		case netlist.Input:
			v := m.VarIndex(g.Name)
			if v < 0 {
				return nil, fmt.Errorf("diffprop: order is missing input %q", g.Name)
			}
			e.good[id] = m.Var(v)
		case netlist.Not:
			e.good[id] = m.Not(e.good[g.Fanin[0]])
		case netlist.Buff:
			e.good[id] = e.good[g.Fanin[0]]
		default:
			a, b := e.good[g.Fanin[0]], e.good[g.Fanin[1]]
			switch g.Type {
			case netlist.And:
				e.good[id] = m.And(a, b)
			case netlist.Nand:
				e.good[id] = m.Nand(a, b)
			case netlist.Or:
				e.good[id] = m.Or(a, b)
			case netlist.Nor:
				e.good[id] = m.Nor(a, b)
			case netlist.Xor:
				e.good[id] = m.Xor(a, b)
			case netlist.Xnor:
				e.good[id] = m.Xnor(a, b)
			default:
				return nil, fmt.Errorf("diffprop: unsupported gate type %v", g.Type)
			}
		}
	}
	e.varToInput = make([]int, m.NumVars())
	for i, n := range work.InputNames() {
		e.varToInput[m.VarIndex(n)] = i
	}
	// The reachability table serves double duty as the cone index of the
	// worklist propagation, so it is built eagerly: one reverse-topological
	// sweep here, aliased by every Share view thereafter.
	e.reach = faults.NewReachability(work)
	e.support = &piSupport{}
	e.peakNodes = m.NodeCount()
	return e, nil
}

// Share returns an engine over the same circuit and the same BDD node
// table: good functions, computed cache and unique table are shared, so
// the new engine costs a few slice headers instead of a full node-store
// copy, and warm cache entries built by any view serve all of them. The
// shared views — including the receiver — must bracket every fault query
// with AnalysisLock, which coordinates concurrent analyses with in-place
// compaction. Budgets, recovery settings, statistics and the syndrome
// cache are per-view; the good slice is aliased so recovery by one view
// re-roots all of them.
func (e *Engine) Share() *Engine {
	if e.shared == nil {
		e.shared = &sync.RWMutex{}
	}
	return &Engine{
		Circuit:      e.Circuit,
		m:            e.m.Share(),
		good:         e.good,
		rebuildLimit: e.rebuildLimit,
		syndromes:    append([]float64(nil), e.syndromes...),
		synValid:     append([]bool(nil), e.synValid...),
		varToInput:   e.varToInput,
		reach:        e.reach,
		support:      e.support,
		faultBudget:  e.faultBudget,
		recovery:     e.recovery,
		shared:       e.shared,
		peakNodes:    e.m.NodeCount(),
	}
}

// AnalysisLock enters one fault analysis on a shared engine and returns
// the function that leaves it. The returned unlock must be held across
// the whole analysis — query plus any witness/cube extraction — because
// the refs a query returns die at the next in-place compaction, which
// only runs while no analysis holds the lock. When the shared table has
// outgrown the rebuild limit the entering worker compacts it first (under
// the exclusive lock) so garbage cannot accumulate unboundedly: begin()
// skips its own compaction check in shared mode precisely because it runs
// under the read lock. On an unshared engine both enter and leave are
// no-ops.
func (e *Engine) AnalysisLock() func() {
	sh := e.shared
	if sh == nil {
		return func() {}
	}
	if e.m.NodeCount() > e.rebuildLimit {
		sh.Lock()
		if e.m.NodeCount() > e.rebuildLimit {
			e.compact()
		}
		sh.Unlock()
	}
	sh.RLock()
	return sh.RUnlock
}

// Manager exposes the engine's BDD manager (for witness extraction,
// counting, etc.). References into it are invalidated by the next
// Engine analysis call.
func (e *Engine) Manager() *bdd.Manager { return e.m }

// Good returns the good function of a net in the working circuit.
func (e *Engine) Good(net int) bdd.Ref { return e.good[net] }

// NumVars returns the number of primary inputs / BDD variables.
func (e *Engine) NumVars() int { return e.m.NumVars() }

// Rebuilds reports how many generational GC passes have run.
func (e *Engine) Rebuilds() int { return e.rebuilds }

// VarToInput returns, for each BDD variable position, the index of the
// corresponding primary input in circuit declaration order. Needed to
// translate AnySat cubes (variable order) into test vectors (input order).
// The mapping is fixed for the engine's lifetime and computed once in
// New; the returned slice is the engine's cached copy and must not be
// modified.
func (e *Engine) VarToInput() []int { return e.varToInput }

// Assignment converts a test vector in primary-input declaration order
// into a BDD evaluation assignment in variable order.
func (e *Engine) Assignment(vec []bool) []bool {
	out := make([]bool, len(e.varToInput))
	for v, i := range e.varToInput {
		out[v] = vec[i]
	}
	return out
}

// Syndrome returns the exact syndrome of a net: the fraction of input
// assignments driving it to one (Savir). Values are cached per net.
func (e *Engine) Syndrome(net int) float64 {
	if !e.synValid[net] {
		e.syndromes[net] = e.m.SatFrac(e.good[net])
		e.synValid[net] = true
	}
	return e.syndromes[net]
}

// SetFaultBudget arms a per-analysis operation budget: every subsequent
// fault query charges BDD operations (one per ITE, DiffAnd or BooleanDiff
// step) against ops and panics with bdd.ErrBudget once it is exhausted. Zero disarms.
// After recovering from bdd.ErrBudget the caller must invoke Recover
// before the next query.
func (e *Engine) SetFaultBudget(ops int64) { e.faultBudget = ops }

// FaultBudget returns the currently armed per-analysis operation budget.
func (e *Engine) FaultBudget() int64 { return e.faultBudget }

// SetRecovery configures the graceful-recovery ladder (see Recovery). The
// zero value restores the historical GC-only behavior.
func (e *Engine) SetRecovery(r Recovery) { e.recovery = r }

// Recovery returns the configured recovery ladder.
func (e *Engine) Recovery() Recovery { return e.recovery }

// RelaxBudget arms the ladder's retry rung: the per-fault operation budget
// and the node watermark are scaled by Recovery.RetryMultiplier so
// the caller can re-attempt a blown fault once with more headroom. It
// returns a restore function that reinstates the original bounds, and
// ok=false — arming nothing — when the retry rung is disabled
// (RetryMultiplier <= 1) or there is no bound to relax.
func (e *Engine) RelaxBudget() (restore func(), ok bool) {
	mult := e.recovery.RetryMultiplier
	if mult <= 1 || (e.faultBudget <= 0 && e.recovery.NodeLimit <= 0) {
		return nil, false
	}
	savedBudget, savedRecovery := e.faultBudget, e.recovery
	e.faultBudget = scaleBound(savedBudget, mult)
	e.recovery.NodeLimit = int(scaleBound(int64(savedRecovery.NodeLimit), mult))
	return func() {
		e.faultBudget, e.recovery = savedBudget, savedRecovery
	}, true
}

// scaleBound multiplies a resource bound, keeping zero (= unlimited) at
// zero and saturating instead of overflowing.
func scaleBound(v int64, mult float64) int64 {
	if v <= 0 {
		return v
	}
	f := float64(v) * mult
	if f >= float64(1<<62) {
		return 1 << 62
	}
	return int64(f)
}

// begin opens a fault analysis: compacts the manager if it outgrew the
// limit, then arms the per-analysis budget and node watermark (if any) so
// the whole query — seed construction, propagation, counting — is metered
// as one unit.
func (e *Engine) begin() {
	if e.shared == nil {
		// Shared engines compact under the exclusive lock in AnalysisLock;
		// begin runs under the read side where adoption is off-limits.
		e.maybeCompact()
	}
	if e.phaseClock {
		e.phaseStart = time.Now()
		e.lastPhases = PhaseTimes{}
	}
	// The complement memo caches refs, which die at the next compaction or
	// recovery; its lifetime is exactly one analysis.
	clear(e.notMemo)
	lim := e.recovery.NodeLimit
	if lim > 0 {
		// Headroom guarantee: the live good functions plus half again can
		// never trip the watermark, however small it was configured.
		if floor := e.m.NodeCount() + e.m.NodeCount()/2; lim < floor {
			lim = floor
		}
	}
	e.m.SetNodeLimit(lim)
	// Always arm, even with a zero (unlimited) budget: SetBudget resets
	// the manager's charge meter, making AnalysisOps a per-analysis count
	// — the sample the campaign layer's budget self-calibration learns
	// from.
	e.m.SetBudget(e.faultBudget)
	if e.chaosAt > 0 {
		e.m.SetChaosAbort(e.chaosAt, e.chaosErr)
		e.chaosAt, e.chaosErr = 0, nil
	}
}

// Recover restores the engine after an aborted analysis (a bdd.ErrBudget
// or bdd.ErrNodeLimit panic, or any panic that escaped a fault query) by
// running the recovery ladder's engine-side rung: the manager is
// garbage-collected in place around the good functions, dropping every
// node the aborted query left behind. The variable order is unchanged.
// The budget and watermark are disarmed until the next query re-arms
// them. The abort fires only between node-table mutations and the node
// store is append-only, so recovery always starts from a consistent table.
func (e *Engine) Recover() {
	// OpsCharged must be read before ClearBudget resets the meter.
	e.lastAbortOps = e.m.OpsCharged()
	e.m.ClearBudget()
	e.m.SetNodeLimit(0)
	// Drop any chaos trigger still pending on the engine: if the aborted
	// analysis never reached begin (an injected panic between arming and
	// the first query), the trigger must not leak into the next fault.
	e.chaosAt, e.chaosErr = 0, nil
	if sh := e.shared; sh != nil {
		// Recover is reached inside an analysis, i.e. under the read lock.
		// The GC re-roots the shared table, which needs the exclusive
		// lock, so escalate: drop the read side, collect, re-enter. This
		// cannot deadlock — every other holder of the read side that needs
		// the write lock drops its read lock first, exactly like here.
		sh.RUnlock()
		sh.Lock()
		e.compact()
		sh.Unlock()
		sh.RLock()
		return
	}
	e.compact()
}

// maybeCompact garbage-collects the manager around the good functions when
// the node table has grown past the limit, dropping all per-fault garbage.
func (e *Engine) maybeCompact() {
	if e.m.NodeCount() <= e.rebuildLimit {
		return
	}
	e.compact()
}

// compact garbage-collects the manager in place around the good functions.
// The manager keeps its identity, so cumulative cache statistics and the
// node high-water mark survive without engine-side accumulators. Shared by
// maybeCompact (node-table growth) and Recover (the ladder's GC rung).
func (e *Engine) compact() {
	before := e.m.NodeCount()
	if before > e.peakNodes {
		e.peakNodes = before
	}
	roots, res := e.m.GC(e.good)
	copy(e.good, roots)
	e.rebuilds++
	e.nodesReclaimed += int64(res.Reclaimed())
}

// Result is the outcome of one fault analysis: the complete test set and
// the figures derived from it. The BDD references are valid until the
// next Engine call.
type Result struct {
	// PerPO holds the difference function observed at each primary output
	// (index-aligned with Circuit.Outputs).
	PerPO []bdd.Ref
	// Complete is the complete test set: the union of the PO differences.
	Complete bdd.Ref
	// Detectability is the exact detection probability
	// |Complete| / 2^n — the paper's central quantity.
	Detectability float64
	// ObservedPOs lists the output positions with a non-zero difference.
	ObservedPOs []int
	// GatesEvaluated counts the gates whose difference function was
	// actually computed; the rest were skipped by selective trace (§3).
	GatesEvaluated int
}

// Detectable reports whether the fault has any test at all; a false value
// proves redundancy (for stuck-at faults) or untestability.
func (r Result) Detectable() bool { return r.Complete != bdd.False }

// pinKey identifies a gate input pin.
type pinKey struct {
	gate, pin int
}

// seeds carries everything a propagation can start from: explicit initial
// difference functions (single stuck-at and bridging faults) and forced
// constants (multiple stuck-at faults, where a downstream forced site must
// override whatever difference arrives from upstream faults).
type seeds struct {
	net      map[int]bdd.Ref
	pin      map[pinKey]bdd.Ref
	forceNet map[int]bool
	forcePin map[pinKey]bool
}

// propagate seeds the given differences and runs selective-trace
// difference propagation to all primary outputs.
func (e *Engine) propagate(netSeeds map[int]bdd.Ref, pinSeeds map[pinKey]bdd.Ref) Result {
	return e.propagateSeeds(seeds{net: netSeeds, pin: pinSeeds})
}

// propagateSeeds runs the propagation and counts the complete test set.
// It dispatches between the cone-restricted worklist (the default) and the
// retained full-gate-scan reference. The two are bit-identical: a gate
// outside the seed sites' merged fan-out cone can receive only zero input
// differences (differences originate at seed sites and flow along fan-out
// edges, and cones are transitively closed), so the full scan does no BDD
// work there and the worklist may skip it entirely. Within the cone both
// walk gates in ascending net id — the topological order Validate
// guarantees — so they issue the same BDD operations in the same order.
func (e *Engine) propagateSeeds(sd seeds) Result {
	var res Result
	if e.fullScan {
		res = e.propagateSeedsFullScan(sd)
	} else {
		res = e.propagateSeedsWorklist(sd)
	}
	e.count(&res)
	return res
}

// count fills a result's Detectability, the satisfying-set-count phase of
// the analysis.
func (e *Engine) count(res *Result) {
	var clk time.Time
	if e.phaseClock {
		clk = time.Now()
	}
	res.Detectability = e.m.SatFrac(res.Complete)
	if e.phaseClock {
		e.lastPhases.SatCount += time.Since(clk)
	}
}

// pinDelta resolves the difference arriving at one gate input pin:
// forced-pin constants override pin seeds, which override whatever
// difference the fan-in net carries (bdd.False for none).
func (e *Engine) pinDelta(sd seeds, delta []bdd.Ref, id, pin, fanin int) bdd.Ref {
	if sd.forcePin != nil {
		if v, ok := sd.forcePin[pinKey{id, pin}]; ok {
			return e.forcedDelta(fanin, v)
		}
	}
	if sd.pin != nil {
		if d, ok := sd.pin[pinKey{id, pin}]; ok {
			return d
		}
	}
	return delta[fanin]
}

// gateDelta applies Table 1 at one gate whose input pins carry the
// differences da and db (db is ignored for single-input gates). It
// reports whether the gate counted as evaluated: a two-input gate with a
// non-zero input difference. Both propagation strategies call it, so
// they issue the same BDD operations in the same order.
func (e *Engine) gateDelta(g *netlist.Gate, da, db bdd.Ref) (bdd.Ref, bool) {
	m := e.m
	var fa, fb bdd.Ref
	switch g.Type {
	case netlist.Not, netlist.Buff:
		return da, false // output inversion leaves a difference unchanged
	case netlist.Xor, netlist.Xnor:
	case netlist.And, netlist.Nand:
		fa, fb = e.good[g.Fanin[0]], e.good[g.Fanin[1]]
	case netlist.Or, netlist.Nor:
		fa, fb = m.Not(e.good[g.Fanin[0]]), m.Not(e.good[g.Fanin[1]])
	default:
		panic(fmt.Sprintf("diffprop: unexpected gate type %v", g.Type))
	}
	// ΔC = fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB for AND/OR (ΔA ⊕ ΔB for XOR): one And
	// when a single input carries a difference, the fused kernel when both
	// do.
	switch {
	case da == bdd.False && db == bdd.False:
		return bdd.False, false // selective trace: no difference reaches this gate
	case g.Type == netlist.Xor || g.Type == netlist.Xnor:
		return m.Xor(da, db), true
	case da == bdd.False:
		return m.And(fa, db), true
	case db == bdd.False:
		return m.And(fb, da), true
	}
	return m.DiffAnd(fa, fb, da, db), true
}

// propagateSeedsWorklist is the cone-restricted propagation: it ORs the
// packed reachability rows of every seed site into a merged-cone bitset
// and walks only those nets, in ascending id (= topological) order. Both
// strategies evaluate gates through gateDelta; per-fault walk cost drops
// from O(|circuit|) to O(|cone|).
func (e *Engine) propagateSeedsWorklist(sd seeds) Result {
	var clk time.Time
	if e.phaseClock {
		clk = time.Now()
		// Everything between begin() and here built the difference seeds.
		e.lastPhases.Build = clk.Sub(e.phaseStart)
	}
	m := e.m
	c := e.Circuit
	n := c.NumNets()
	words := (n + 63) / 64
	if len(e.coneBuf) < words {
		e.coneBuf = make([]uint64, words)
	}
	if len(e.deltaBuf) < n {
		e.deltaBuf = make([]bdd.Ref, n)
	}
	cone, delta := e.coneBuf, e.deltaBuf
	// Every delta write below lands on a net whose cone bit is already
	// set, so walking the set bits scrubs both buffers back to zero — even
	// when a budget abort panics out mid-propagation (the abort would
	// otherwise leave stale refs for the next fault to misread).
	defer func() {
		for w, wbits := range cone {
			for wbits != 0 {
				delta[w*64+bits.TrailingZeros64(wbits)] = bdd.False
				wbits &= wbits - 1
			}
			cone[w] = 0
		}
	}()
	// mark adds a seed site to the worklist: the site itself (a seeded
	// site inside another seed's cone must still be recomputed, and a
	// site's own difference is read when it is a primary output) plus its
	// whole fan-out cone.
	mark := func(net int) {
		cone[net>>6] |= 1 << uint(net&63)
		for w, row := range e.reach.Row(net) {
			cone[w] |= row
		}
	}
	for net, d := range sd.net {
		mark(net)
		if d != bdd.False {
			delta[net] = d
		}
	}
	// A forced primary input differs wherever its good value disagrees
	// with the forced constant; forced gate outputs are handled at their
	// gate, inside the walk.
	for net, v := range sd.forceNet {
		mark(net)
		if c.Gates[net].Type == netlist.Input {
			if d := e.forcedDelta(net, v); d != bdd.False {
				delta[net] = d
			}
		}
	}
	for k := range sd.pin {
		mark(k.gate)
	}
	for k := range sd.forcePin {
		mark(k.gate)
	}
	evaluated, visited := 0, 0
	for w, wbits := range cone {
		for wbits != 0 {
			id := w*64 + bits.TrailingZeros64(wbits)
			wbits &= wbits - 1
			g := &c.Gates[id]
			if g.Type == netlist.Input {
				continue
			}
			visited++
			// A forced gate output overrides any arriving difference: the
			// faulty value is the constant no matter what happens upstream.
			if sd.forceNet != nil {
				if v, ok := sd.forceNet[id]; ok {
					delta[id] = e.forcedDelta(id, v)
					continue
				}
			}
			da := e.pinDelta(sd, delta, id, 0, g.Fanin[0])
			var db bdd.Ref
			if len(g.Fanin) > 1 {
				db = e.pinDelta(sd, delta, id, 1, g.Fanin[1])
			}
			out, ok := e.gateDelta(g, da, db)
			if ok {
				evaluated++
			}
			if out != bdd.False {
				delta[id] = out
			}
		}
	}
	res := Result{PerPO: make([]bdd.Ref, len(c.Outputs)), Complete: bdd.False, GatesEvaluated: evaluated}
	for i, o := range c.Outputs {
		// An unvisited, unseeded net holds the zero Ref, which is
		// bdd.False: a difference that never reached this output.
		d := delta[o]
		res.PerPO[i] = d
		if d != bdd.False {
			res.ObservedPOs = append(res.ObservedPOs, i)
			res.Complete = m.Or(res.Complete, d)
		}
	}
	if e.phaseClock {
		e.lastPhases.Propagate = time.Since(clk)
	}
	e.analyses++
	e.gateEvals += int64(evaluated)
	e.gatesVisited += int64(visited)
	e.gatesSkipped += int64(c.NumGates() - visited)
	e.lastConeGates = visited
	if nc := m.NodeCount(); nc > e.peakNodes {
		e.peakNodes = nc
	}
	return res
}

// propagateSeedsFullScan is the historical O(|circuit|) propagation: every
// gate is examined in index order and selective trace skips those with
// all-False input differences. Kept as the differential-testing
// reference for the worklist (see the fullScan field).
func (e *Engine) propagateSeedsFullScan(sd seeds) Result {
	var clk time.Time
	if e.phaseClock {
		clk = time.Now()
		// Everything between begin() and here built the difference seeds.
		e.lastPhases.Build = clk.Sub(e.phaseStart)
	}
	m := e.m
	c := e.Circuit
	delta := make(map[int]bdd.Ref, 64)
	for net, d := range sd.net {
		if d != bdd.False {
			delta[net] = d
		}
	}
	// A forced primary input differs wherever its good value disagrees
	// with the forced constant.
	for net, v := range sd.forceNet {
		if c.Gates[net].Type == netlist.Input {
			if d := e.forcedDelta(net, v); d != bdd.False {
				delta[net] = d
			}
		}
	}
	evaluated := 0
	for id, g := range c.Gates {
		if g.Type == netlist.Input {
			continue
		}
		// A forced gate output overrides any arriving difference: the
		// faulty value is the constant no matter what happens upstream.
		if v, ok := sd.forceNet[id]; ok {
			if d := e.forcedDelta(id, v); d != bdd.False {
				delta[id] = d
			} else {
				delete(delta, id)
			}
			continue
		}
		din := func(pin int) bdd.Ref {
			if v, ok := sd.forcePin[pinKey{id, pin}]; ok {
				return e.forcedDelta(g.Fanin[pin], v)
			}
			if d, ok := sd.pin[pinKey{id, pin}]; ok {
				return d
			}
			if d, ok := delta[g.Fanin[pin]]; ok {
				return d
			}
			return bdd.False
		}
		da := din(0)
		var db bdd.Ref
		if len(g.Fanin) > 1 {
			db = din(1)
		}
		out, ok := e.gateDelta(&g, da, db)
		if ok {
			evaluated++
		}
		if out != bdd.False {
			delta[id] = out
		}
	}
	res := Result{PerPO: make([]bdd.Ref, len(c.Outputs)), Complete: bdd.False, GatesEvaluated: evaluated}
	for i, o := range c.Outputs {
		// A missing map entry yields the zero Ref, which is bdd.False: a
		// difference that never reached (or was seeded at) this output.
		d := delta[o]
		res.PerPO[i] = d
		if d != bdd.False {
			res.ObservedPOs = append(res.ObservedPOs, i)
			res.Complete = m.Or(res.Complete, d)
		}
	}
	if e.phaseClock {
		e.lastPhases.Propagate = time.Since(clk)
	}
	e.analyses++
	e.gateEvals += int64(evaluated)
	// The scan examines every gate; it restricts nothing and skips none.
	e.gatesVisited += int64(c.NumGates())
	e.lastConeGates = c.NumGates()
	if nc := m.NodeCount(); nc > e.peakNodes {
		e.peakNodes = nc
	}
	return res
}

// StuckAt computes the complete test set for a single stuck-at fault
// (net or fan-out-branch site) in the working circuit.
func (e *Engine) StuckAt(f faults.StuckAt) Result {
	e.begin()
	fl := e.good[f.Net]
	var d bdd.Ref
	if f.Stuck {
		d = e.m.Not(fl) // stuck-at-1 differs wherever the line is 0
	} else {
		d = fl // stuck-at-0 differs wherever the line is 1
	}
	if !f.IsBranch() {
		return e.propagate(map[int]bdd.Ref{f.Net: d}, nil)
	}
	return e.propagate(nil, map[pinKey]bdd.Ref{{f.Gate, f.Pin}: d})
}

// forcedDelta returns the difference of a line forced to the constant v:
// where the good value disagrees with v. Complements are memoized per
// analysis (begin clears the memo): with complement edges Not itself is a
// free ref flip, but a multi-fault seed re-derives the same forced
// difference once per consuming pin, and the memo keeps that to one
// derivation per site however many pins read it.
func (e *Engine) forcedDelta(net int, v bool) bdd.Ref {
	if !v {
		return e.good[net]
	}
	if d, ok := e.notMemo[net]; ok {
		return d
	}
	d := e.m.Not(e.good[net])
	if e.notMemo == nil {
		e.notMemo = make(map[int]bdd.Ref, 8)
	}
	e.notMemo[net] = d
	return d
}

// MultipleStuckAt computes the complete test set of a multiple stuck-at
// fault: all component faults present simultaneously. The Table 1
// identities are valid for arbitrary input differences, so the same
// propagation applies; the only addition is that a forced site overrides
// any difference arriving from upstream component faults (its faulty
// value is the constant regardless). This is the machinery behind the
// paper's remark that any fault restricted to the logical domain can be
// addressed, and it powers the X5 double-fault experiment in the style of
// Hughes & McCluskey (the paper's ref [2]).
func (e *Engine) MultipleStuckAt(fs []faults.StuckAt) Result {
	e.begin()
	sd := seeds{forceNet: map[int]bool{}, forcePin: map[pinKey]bool{}}
	for _, f := range fs {
		if f.IsBranch() {
			sd.forcePin[pinKey{f.Gate, f.Pin}] = f.Stuck
		} else {
			sd.forceNet[f.Net] = f.Stuck
		}
	}
	return e.propagateSeeds(sd)
}

// GateSubstitution computes the complete test set of a gate replacement
// fault: the gate driving the net computes wrongType instead of its own
// function, over the same fan-ins. The difference seed is simply
// f_gate ⊕ wrongType(f_fanins), demonstrating the paper's conclusion that
// Difference Propagation addresses "more logical fault models than just
// the single stuck-at fault".
func (e *Engine) GateSubstitution(gate int, wrongType netlist.GateType) Result {
	e.begin()
	g := e.Circuit.Gates[gate]
	if g.Type == netlist.Input {
		panic("diffprop: cannot substitute a primary input")
	}
	unary := wrongType == netlist.Not || wrongType == netlist.Buff
	if unary != (len(g.Fanin) == 1) {
		panic(fmt.Sprintf("diffprop: arity mismatch substituting %v for %v", wrongType, g.Type))
	}
	m := e.m
	var wrong bdd.Ref
	switch wrongType {
	case netlist.Not:
		wrong = m.Not(e.good[g.Fanin[0]])
	case netlist.Buff:
		wrong = e.good[g.Fanin[0]]
	case netlist.And:
		wrong = m.And(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Nand:
		wrong = m.Nand(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Or:
		wrong = m.Or(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Nor:
		wrong = m.Nor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Xor:
		wrong = m.Xor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Xnor:
		wrong = m.Xnor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	default:
		panic(fmt.Sprintf("diffprop: cannot substitute gate type %v", wrongType))
	}
	d := m.Xor(e.good[gate], wrong)
	return e.propagate(map[int]bdd.Ref{gate: d}, nil)
}

// FeedbackChecker returns the engine's fan-out reachability table (built
// in New, immutable, aliased by every Share view). It screens
// feedback bridges in O(1) per pair and provides the packed cone rows the
// worklist propagation merges per fault.
func (e *Engine) FeedbackChecker() *faults.Reachability {
	if e.reach == nil {
		// Zero-value safety only; New always populates the table.
		e.reach = faults.NewReachability(e.Circuit)
	}
	return e.reach
}

// Bridging computes the complete test set for a two-wire non-feedback
// bridging fault. The difference seeds follow directly from the wired
// functions: for a wired-AND bridge F_u = F_v = f_u∧f_v, so
// Δ_u = f_u·¬f_v and Δ_v = f_v·¬f_u; dually for wired-OR.
func (e *Engine) Bridging(b faults.Bridging) Result {
	if e.FeedbackChecker().IsFeedback(b.U, b.V) {
		panic(fmt.Sprintf("diffprop: %v is a feedback bridge", b))
	}
	e.begin()
	m := e.m
	fu, fv := e.good[b.U], e.good[b.V]
	var du, dv bdd.Ref
	if b.Kind == faults.WiredAND {
		du = m.And(fu, m.Not(fv))
		dv = m.And(fv, m.Not(fu))
	} else {
		du = m.And(m.Not(fu), fv)
		dv = m.And(m.Not(fv), fu)
	}
	return e.propagate(map[int]bdd.Ref{b.U: du, b.V: dv}, nil)
}

// Observability computes the exact observability function of a net: the
// set of input vectors under which inverting the net changes at least one
// primary output — the OR over outputs of the Boolean difference. It is
// obtained by seeding a constant-true difference at the net, which is how
// the CATAPULT-style factored approach (the paper's §3 contrast) derives
// test sets as excitation ∧ observability. For a net fault,
//
//	T(SA0) = f_net ∧ Obs(net),   T(SA1) = ¬f_net ∧ Obs(net),
//
// which StuckAtPI exploits at primary inputs and the tests verify against
// the direct difference propagation at every checkpoint site.
func (e *Engine) Observability(net int) bdd.Ref {
	e.begin()
	return e.propagate(map[int]bdd.Ref{net: bdd.True}, nil).Complete
}

// PinObservability is Observability for a single fan-out branch: the set
// of vectors under which inverting only that gate input pin is visible at
// some primary output.
func (e *Engine) PinObservability(gate, pin int) bdd.Ref {
	e.begin()
	return e.propagate(nil, map[pinKey]bdd.Ref{{gate, pin}: bdd.True}).Complete
}

// StuckAtPI analyzes several stuck-at faults on one primary input — one
// Result per entry of stuck (at least one), in order — without a gate
// walk: the CATAPULT-style factoring of the paper's §3 contrast, done
// where it is exact in every reported figure. Inverting input x changes
// net n exactly on Obs_n = f_n|x=0 ⊕ f_n|x=1, the difference a
// True-seeded propagation from x would carry to n, and Obs_n does not
// depend on x: the stuck-at-0 difference at n is x ∧ Obs_n, the stuck-at-1
// difference ¬x ∧ Obs_n, and either is non-zero exactly where x is in the
// functional support of f_n. So each output's Obs comes from one
// bdd.Manager.BooleanDiff of its good function (a shared computed cache
// makes the outputs one memoized pass), each polarity's test set and
// per-output differences are its excitation ANDed with them, and
// ObservedPOs and GatesEvaluated — the outputs and two-input gates whose
// (fan-in) functions depend on x — come from the nets' functional
// supports: bit-for-bit what StuckAt returns for each fault. The whole
// call is one analysis: one begin, so one budget covers every polarity.
func (e *Engine) StuckAtPI(net int, stuck []bool) []Result {
	if !e.Circuit.IsInput(net) || len(stuck) == 0 {
		panic(fmt.Sprintf("diffprop: StuckAtPI of %d faults on net %s", len(stuck), e.Circuit.NetName(net)))
	}
	e.begin()
	sup := e.supports()
	var clk time.Time
	if e.phaseClock {
		clk = time.Now()
		e.lastPhases.Build = clk.Sub(e.phaseStart)
	}
	m := e.m
	c := e.Circuit
	v := m.Level(e.good[net]) // an input's good function is its variable
	obs := make([]bdd.Ref, len(c.Outputs))
	var observed []int
	union := bdd.False
	for i, o := range c.Outputs {
		if sup.has(o, v) {
			obs[i] = m.BooleanDiff(e.good[o], v)
			observed = append(observed, i)
			union = m.Or(union, obs[i])
		}
	}
	if e.phaseClock {
		e.lastPhases.Propagate = time.Since(clk)
	}
	out := make([]Result, len(stuck))
	for k, s := range stuck {
		exc := e.good[net] // stuck-at-0 is excited wherever the input is 1
		if s {
			exc = m.Not(exc)
		}
		res := Result{
			PerPO:          make([]bdd.Ref, len(obs)),
			Complete:       m.And(exc, union),
			ObservedPOs:    append([]int(nil), observed...),
			GatesEvaluated: sup.evals[v],
		}
		for _, i := range observed {
			res.PerPO[i] = m.And(exc, obs[i])
		}
		e.count(&res)
		out[k] = res
	}
	// No gate is walked: every fault served skips them all, and is
	// credited the evaluations its record reports.
	n := int64(len(stuck))
	e.analyses++
	e.gateEvals += int64(sup.evals[v]) * n
	e.gatesSkipped += int64(c.NumGates()) * n
	e.lastConeGates = 0
	if nc := m.NodeCount(); nc > e.peakNodes {
		e.peakNodes = nc
	}
	return out
}

// piSupport holds the structural facts StuckAtPI reads instead of walking
// the gates: every net's functional support and, per variable, how many
// gates a True-seeded walk from that input evaluates. Supports are
// properties of the good functions, which no collection changes, so one
// pass per shared table serves every view for the engine's lifetime.
type piSupport struct {
	once  sync.Once
	words int
	rows  []uint64 // rows[n*words:(n+1)*words]: variables net n depends on
	evals []int    // evals[v]: two-input gates with a fan-in depending on v
}

// has reports whether net n's good function depends on variable v.
func (p *piSupport) has(n, v int) bool {
	return p.rows[n*p.words+v>>6]&(1<<uint(v&63)) != 0
}

// supports fills the shared support tables on first use. A walk seeded
// at input x evaluates a two-input gate exactly when one of its fan-ins
// carries a non-zero difference, i.e. depends on x.
func (e *Engine) supports() *piSupport {
	p := e.support
	p.once.Do(func() {
		p.rows, p.words = e.m.SupportRows(e.good)
		p.evals = make([]int, e.m.NumVars())
		fanin := make([]uint64, p.words)
		for _, g := range e.Circuit.Gates {
			switch g.Type {
			case netlist.Input, netlist.Not, netlist.Buff:
				continue
			}
			clear(fanin)
			for _, f := range g.Fanin {
				for w, row := range p.rows[f*p.words : (f+1)*p.words] {
					fanin[w] |= row
				}
			}
			for w, wbits := range fanin {
				for ; wbits != 0; wbits &= wbits - 1 {
					p.evals[w*64+bits.TrailingZeros64(wbits)]++
				}
			}
		}
	})
	return p
}

// WitnessVector extracts one test vector (primary-input declaration
// order) from a result's complete test set, filling don't-cares with
// zero. It returns nil for undetectable faults.
func (e *Engine) WitnessVector(res Result) []bool {
	cube := e.m.AnySat(res.Complete)
	if cube == nil {
		return nil
	}
	v2i := e.VarToInput()
	vec := make([]bool, len(e.Circuit.Inputs))
	for v, s := range cube {
		if s == 1 {
			vec[v2i[v]] = true
		}
	}
	return vec
}

// MinimalTestCube widens a witness of the complete test set into a
// locally minimal test cube: starting from an AnySat path cube, every
// specified literal that can become a don't-care without leaving the test
// set is dropped. The result (one entry per BDD variable: 0, 1, or -1)
// is a cube all of whose completions are tests — handy for test-set
// compaction and for human-readable fault reports. Returns nil for
// undetectable faults.
func (e *Engine) MinimalTestCube(res Result) []int8 {
	m := e.m
	cube := m.AnySat(res.Complete)
	if cube == nil {
		return nil
	}
	lit := func(v int, s int8) bdd.Ref {
		if s == 1 {
			return m.Var(v)
		}
		return m.NVar(v)
	}
	// Widening literal v tests the cube prefix[v] ∧ suffix[v+1], where the
	// prefix holds the literals kept so far and the suffix the not-yet-
	// visited ones. Maintaining both as running conjunctions needs O(vars)
	// BDD operations total instead of rebuilding the cube from scratch
	// (O(vars²)) after every candidate drop; the drop decisions — and hence
	// the resulting cube — are identical.
	notT := m.Not(res.Complete)
	suffix := make([]bdd.Ref, len(cube)+1)
	suffix[len(cube)] = bdd.True
	for v := len(cube) - 1; v >= 0; v-- {
		suffix[v] = suffix[v+1]
		if cube[v] >= 0 {
			suffix[v] = m.And(suffix[v], lit(v, cube[v]))
		}
	}
	prefix := bdd.True
	for v := range cube {
		if cube[v] < 0 {
			continue
		}
		// The widened cube must still imply the complete test set:
		// cube ∧ ¬T ≡ 0.
		if m.And(m.And(prefix, suffix[v+1]), notT) == bdd.False {
			cube[v] = -1
			continue
		}
		prefix = m.And(prefix, lit(v, cube[v]))
	}
	return cube
}

// StuckAtUpperBound returns the syndrome bound on the fault's
// detectability (§4.1): the syndrome of the line for stuck-at-0, its
// complement for stuck-at-1 — excitation alone caps the test-set size.
func (e *Engine) StuckAtUpperBound(f faults.StuckAt) float64 {
	s := e.Syndrome(f.Net)
	if f.Stuck {
		return 1 - s
	}
	return s
}

// BridgingUpperBound returns the excitation bound for a bridging fault:
// the fault is excited exactly where the two wires disagree, so
// |f_u ⊕ f_v| / 2^n bounds the detectability for both wired-AND and
// wired-OR behavior.
func (e *Engine) BridgingUpperBound(b faults.Bridging) float64 {
	return e.m.SatFrac(e.m.Xor(e.good[b.U], e.good[b.V]))
}

// Adherence is the paper's §4.1 metric: detectability divided by its
// excitation upper bound — the share of exciting minterms that are
// actually tests. It returns (value, ok); ok is false when the bound is
// zero (the fault cannot even be excited).
func Adherence(detectability, upperBound float64) (float64, bool) {
	if upperBound <= 0 {
		return 0, false
	}
	a := detectability / upperBound
	if a > 1 {
		// Guard against float rounding; exact arithmetic guarantees <= 1.
		a = 1
	}
	return a, true
}

// BridgeActsStuckAt implements the Figure 5 classification: when the
// faulty function at the bridge site depends on no variable, the bridged
// wires are stuck at a constant — the bridging fault is equivalent to a
// (double) stuck-at fault. For a wired-AND bridge the site function is
// f_u∧f_v; for wired-OR, f_u∨f_v. On a reduced BDD the support is empty
// exactly when the function is a terminal.
func (e *Engine) BridgeActsStuckAt(b faults.Bridging) bool {
	m := e.m
	var site bdd.Ref
	if b.Kind == faults.WiredAND {
		site = m.And(e.good[b.U], e.good[b.V])
	} else {
		site = m.Or(e.good[b.U], e.good[b.V])
	}
	return bdd.IsConst(site)
}

//go:generate go run ordertable_gen.go

// tableOrder returns the committed variable order of the circuit's
// catalog entry, or nil when the table has no entry under its name or
// the entry is not a permutation of its inputs: a -bench netlist, a clone
// with added inputs or a test circuit that shares a catalog name.
func tableOrder(work *netlist.Circuit) []string {
	order, ok := orderTable[work.Name]
	if !ok || len(order) != len(work.Inputs) {
		return nil
	}
	seen := make(map[int]bool, len(order))
	for _, name := range order {
		id := work.NetByName(name)
		if id < 0 || !work.IsInput(id) || seen[id] {
			return nil
		}
		seen[id] = true
	}
	return order
}

// DFSOrder returns a variable order produced by depth-first traversal of
// the circuit from the primary outputs, visiting fan-ins in pin order —
// the classic topology-driven ordering heuristic offered as an
// alternative to benchmark declaration order.
func DFSOrder(c *netlist.Circuit) []string {
	seen := make([]bool, c.NumNets())
	var order []string
	var walk func(int)
	walk = func(net int) {
		if seen[net] {
			return
		}
		seen[net] = true
		g := c.Gates[net]
		if g.Type == netlist.Input {
			order = append(order, g.Name)
			return
		}
		for _, f := range g.Fanin {
			walk(f)
		}
	}
	for _, o := range c.Outputs {
		walk(o)
	}
	// Unreachable inputs still need a variable.
	for _, in := range c.Inputs {
		if !seen[in] {
			order = append(order, c.Gates[in].Name)
		}
	}
	return order
}
