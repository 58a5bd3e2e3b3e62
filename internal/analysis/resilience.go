// Graceful degradation and panic isolation for fault analyses.
//
// Exact Difference Propagation is worst-case exponential; Butler & Mercer
// themselves fell back to functional decomposition once circuits reached
// C499 size. The campaign layer instead bounds each fault with an operation
// budget (diffprop.Engine.SetFaultBudget): a fault that blows it is re-scored
// by a bit-parallel random-vector estimate — statistically useful exactly
// where exact analysis is infeasible, in the spirit of sampled n-detection
// analysis — and marked Approximate. Any other panic escaping a fault
// query (a feedback bridge slipping into a fault set, a malformed site) is
// converted into a per-fault error record so one bad fault cannot take
// down a campaign.
package analysis

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/chaos"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/simulate"
)

// Defaults for the random-vector degradation estimate.
const (
	DefaultFallbackVectors = 4096
	DefaultFallbackSeed    = 1990
)

// faultOutcome classifies how one fault's record was produced.
type faultOutcome int

const (
	outcomeExact faultOutcome = iota
	outcomeDegraded
	outcomeErrored
	// outcomeRescued: the first attempt blew a resource bound but the
	// recovery ladder's relaxed-budget retry completed exactly. The record
	// is exact; the distinct outcome only feeds the rescue counters.
	outcomeRescued
	// outcomeDegradedAfterRetry: the relaxed retry also blew its bound (or
	// panicked) and the fault degraded to a simulation estimate after all.
	outcomeDegradedAfterRetry
)

// fallback lazily builds the shared simulation estimator used to re-score
// budget-blown faults: DefaultFallbackVectors patterns from
// DefaultFallbackSeed. The estimator is fixed-seed and immutable once
// built, so every worker — and every resumed run — produces the same
// estimate for the same fault.
type fallback struct {
	once sync.Once
	est  *simulate.Estimator
}

func (fb *fallback) get(e *diffprop.Engine) *simulate.Estimator {
	fb.once.Do(func() {
		fb.est = simulate.NewEstimator(e.Circuit, DefaultFallbackVectors, DefaultFallbackSeed)
	})
	return fb.est
}

// panicMessage renders a recovered panic value deterministically (panics
// raised by diffprop/simulate/runtime carry stable strings, which keeps
// serial and parallel error records bit-identical).
func panicMessage(r any) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	return fmt.Sprint(r)
}

// budgetAbort reports whether a recovered panic value is one of the
// resource-bound sentinels — an ops budget blow or a node-count
// watermark trip. Both enter the degradation (or retry) path; anything
// else is a real error.
func budgetAbort(r any) bool {
	err, ok := r.(error)
	return ok && (errors.Is(err, bdd.ErrBudget) || errors.Is(err, bdd.ErrNodeLimit))
}

// tryRecord runs the exact analysis, converting an escaping panic into
// an error after restoring the engine (which runs the ladder's GC rung).
// hook, when non-nil, runs inside the recover scope before the analysis
// — the chaos harness's per-fault seam (injected latency, forced aborts,
// worker panics); nil in normal operation.
func tryRecord[F, R any](m faultModel[F, R], e *diffprop.Engine, f F, d distances, hook func()) (rec R, budget bool, errMsg string) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.Recover()
		if budgetAbort(r) {
			budget = true
			return
		}
		errMsg = panicMessage(r)
	}()
	if hook != nil {
		hook()
	}
	return m.exact(e, f, d), false, ""
}

// analyze produces the record for one fault: exact when the analysis
// completes, a simulation estimate when it blows its budget, an error
// record when it panics. Shared by the serial and work-stealing runners
// of both fault models. blown, when non-nil, observes each
// budget/node-limit abort with the attempt number (1 = first, 2 =
// relaxed retry) and the ops charged at abort — the flight recorder's
// ladder seam; nil (no allocation) in normal unobserved operation.
func analyze[F, R any](m faultModel[F, R], e *diffprop.Engine, f F, d distances, fb *fallback, hook func(), blown func(attempt int, ops int64)) (R, faultOutcome) {
	rec, budget, errMsg := tryRecord(m, e, f, d, hook)
	if errMsg != "" {
		return m.failed(f, errMsg), outcomeErrored
	}
	if !budget {
		return rec, outcomeExact
	}
	if blown != nil {
		blown(1, e.LastAbortOps())
	}
	outcome := outcomeDegraded
	// Retry rung: the GC rung already ran inside Recover; when a
	// relaxed budget is configured, re-attempt the fault once before
	// surrendering it to the estimator. The chaos hook applies to the
	// first attempt only — its injected abort is one-shot, so the retry
	// runs clean and a chaos-rescued record is bit-identical to an
	// uninjected run.
	if restore, ok := e.RelaxBudget(); ok {
		rec, budget, errMsg = tryRecord(m, e, f, d, nil)
		restore()
		if errMsg != "" {
			return m.failed(f, errMsg), outcomeErrored
		}
		if !budget {
			return rec, outcomeRescued
		}
		if blown != nil {
			blown(2, e.LastAbortOps())
		}
		outcome = outcomeDegradedAfterRetry
	}
	return m.estimate(e, fb.get(e), f, d), outcome
}

// chaosDraws holds one campaign's per-fault chaos decisions. Each fault's
// injections are drawn once, the first time the fault is considered —
// before its unit's shared analysis, or before its own — and every
// later consultation replays the same draw, so a fault whose unit falls
// back to per-fault analysis is not injected twice. A fault is only ever
// handled by the worker that claimed its unit, so slots need no locking.
// A nil *chaosDraws (chaos off) draws nothing and allocates nothing.
type chaosDraws struct {
	inj   *chaos.Injector
	drawn []bool
	hooks []func()
}

// newChaosDraws returns the draw table of a campaign over total faults,
// or nil when the harness is off.
func newChaosDraws(inj *chaos.Injector, total int) *chaosDraws {
	if inj == nil {
		return nil
	}
	return &chaosDraws{inj: inj, drawn: make([]bool, total), hooks: make([]func(), total)}
}

// hook returns fault i's injection hook, or nil when nothing fires for
// it. The hook runs inside the try* recover scope, before the analysis
// touches the engine:
//
//   - a process-level crash (workerkill/shardtear) fires at the draw —
//     the fault "arrives" and the worker dies before touching it, so its
//     record is exactly what a resuming worker recomputes,
//   - injected latency sleeps first (simulating a slow fault),
//   - a forced budget/node-limit abort is armed on the engine, to fire at
//     the chosen charged operation of THIS analysis only (one-shot, so
//     the ladder's retry completes exactly),
//   - an injected worker panic raises last, with a per-fault-stable error
//     so serial and parallel error records stay bit-identical.
func (d *chaosDraws) hook(e *diffprop.Engine, i int) func() {
	if d == nil {
		return nil
	}
	if d.drawn[i] {
		return d.hooks[i]
	}
	d.drawn[i] = true
	inj := d.inj
	inj.WorkerCrash(i)
	latency := inj.Latency(i)
	var abortAt int64
	var abortErr error
	if at, ok := inj.BudgetAbort(i); ok {
		abortAt, abortErr = at, bdd.ErrBudget
	}
	if at, ok := inj.NodeLimitAbort(i); ok {
		abortAt, abortErr = at, bdd.ErrNodeLimit
	}
	panics := inj.Panic(i)
	if latency <= 0 && abortAt == 0 && !panics {
		return nil
	}
	d.hooks[i] = func() {
		if latency > 0 {
			time.Sleep(latency)
		}
		if abortAt > 0 {
			e.ArmChaosAbort(abortAt, abortErr)
		}
		if panics {
			panic(fmt.Errorf("%w (fault %d)", chaos.ErrInjectedPanic, i))
		}
	}
	return d.hooks[i]
}

// any draws the faults idx and reports whether an injection fires for
// any of them.
func (d *chaosDraws) any(e *diffprop.Engine, idx []int) bool {
	for _, i := range idx {
		if d.hook(e, i) != nil {
			return true
		}
	}
	return false
}

// tryStuckAtUnit analyzes the faults fs[idx], all on one primary input,
// from one shared analysis under the per-fault budget scaled by their
// count. ok is false when the analysis aborted or panicked: the engine is
// recovered, nothing is returned, and the caller analyzes each fault
// through analyze, whose ladder, degradation and error records are
// the per-fault ones.
func tryStuckAtUnit(e *diffprop.Engine, fs []faults.StuckAt, idx []int, d distances) (recs []StuckAtRecord, ok bool) {
	budget := e.FaultBudget()
	n := len(idx)
	e.SetFaultBudget(budget * int64(n))
	defer func() {
		e.SetFaultBudget(budget)
		if r := recover(); r != nil {
			e.Recover()
			recs, ok = nil, false
		}
	}()
	stuck := make([]bool, n)
	for k, i := range idx {
		stuck[k] = fs[i].Stuck
	}
	res := e.StuckAtPI(fs[idx[0]].Net, stuck)
	recs = make([]StuckAtRecord, n)
	for k, i := range idx {
		recs[k] = recordStuckAt(e, fs[i], res[k], d)
	}
	return recs, true
}
