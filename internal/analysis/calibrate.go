// Budget self-calibration.
//
// The per-fault op budget and the recovery ladder's retry multiplier have
// so far been hand-tuned per circuit (-budget / -retrybudget): too tight
// and easy faults degrade, too loose and a pathological fault holds a
// worker for minutes. But a campaign measures the thing the knobs encode
// — the circuit's per-fault op-cost distribution — as a side effect of
// running. The calibrator samples the cost of completed exact analyses
// and, once a warmup window fills, arms every worker engine with bounds
// derived from the distribution's quantiles:
//
//	ops budget      = max(q(calQuantile) x calHeadroom, calMinOps)
//	retry multiplier = clamp(2 x max/q(calQuantile), calRetryMin, calRetryMax)
//
// The q99-with-headroom budget admits the observed population with a wide
// margin, so only genuine outliers abort; the retry multiplier is sized
// from the observed tail ratio so the ladder's single relaxed retry still
// covers a fault ~2x worse than the worst seen. Re-derivation happens
// every calRefresh new samples over a sliding window of recent costs.
//
// Published bounds are monotone non-decreasing for the campaign's
// lifetime: a re-calibration can raise the budget as harder faults
// appear, never lower it. Together with worker-local re-arming — each
// worker adopts a new generation only between its own faults, so an
// armed in-flight budget is never touched, and RelaxBudget's restore
// closure always reinstates exactly what that worker armed — this makes
// the calibrated ladder race-free by construction.
package analysis

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/diffprop"
)

const (
	// calWarmup is the number of exact-fault cost samples collected
	// before the first budget is armed; until then faults run under the
	// campaign's base budget (usually unlimited). 32 is enough for a
	// stable upper quantile without postponing protection.
	calWarmup = 32
	// calQuantile is the op-cost quantile the budget is derived from: the
	// budget should admit essentially the whole observed population and
	// abort only genuine outliers.
	calQuantile = 0.99
	// calHeadroom multiplies the quantile into the armed budget:
	// per-fault costs spread over orders of magnitude, so a wide margin
	// costs little (op budgets bound damage, not throughput) and keeps
	// faults moderately above the observed range exact instead of
	// degraded.
	calHeadroom = 16.0
	// calRefresh re-derives the bounds every calRefresh new samples.
	// Published bounds only ever ratchet upward.
	calRefresh = 256
	// calMinOps floors the armed budget, so tiny circuits with
	// single-digit per-fault costs don't arm absurdly small budgets.
	calMinOps = 4096

	// calRetryMin/-Max clamp the derived retry multiplier: at least the
	// historical hand-tuned value, at most a bound that keeps the relaxed
	// retry from running effectively unbudgeted.
	calRetryMin = 8.0
	calRetryMax = 128.0
	// calWindow bounds the sliding sample window the quantiles are
	// computed over.
	calWindow = 4096
)

// calibrator is the shared calibration state of one campaign run. Workers
// feed it completed-fault costs (observe) and adopt published bounds
// between faults (apply); the generation counter lets the adopt check be
// a single atomic load on the hot path.
type calibrator struct {
	warmup, refresh int               // calWarmup and calRefresh; unit tests shorten them
	base            diffprop.Recovery // campaign recovery config the armed ladder extends
	instr           *campaignInstr

	gen atomic.Uint64 // bumped on every publication; 0 = nothing armed yet

	mu      sync.Mutex
	window  []int64 // sliding window of recent exact-fault op costs
	next    int     // ring cursor once the window is full
	total   int     // samples ever observed
	pending int     // samples since the last derivation
	budget  int64   // published ops budget (0 until first arm)
	retry   float64 // published retry multiplier
	updates int     // publications (first arm + every later raise)
}

// newCalibrator builds the calibrator for one campaign, or nil when
// calibration is off.
func newCalibrator(cfg CampaignConfig, instr *campaignInstr) *calibrator {
	if !cfg.Calibrate {
		return nil
	}
	return &calibrator{
		warmup:  calWarmup,
		refresh: calRefresh,
		base:    cfg.Recovery,
		budget:  cfg.FaultOps, // base budget is the floor the ratchet starts from
		instr:   instr,
	}
}

// observe feeds one completed fault's op cost (exact and rescued outcomes
// only: an aborted attempt's count says where the budget fired, not what
// the fault costs). Safe for concurrent use.
func (cal *calibrator) observe(outcome faultOutcome, ops int64) {
	if cal == nil || ops <= 0 || (outcome != outcomeExact && outcome != outcomeRescued) {
		return
	}
	cal.mu.Lock()
	defer cal.mu.Unlock()
	if len(cal.window) < calWindow {
		cal.window = append(cal.window, ops)
	} else {
		cal.window[cal.next] = ops
		cal.next = (cal.next + 1) % calWindow
	}
	cal.total++
	cal.pending++
	armed := cal.gen.Load() > 0
	if (!armed && cal.total >= cal.warmup) || (armed && cal.pending >= cal.refresh) {
		cal.deriveLocked()
	}
}

// deriveLocked recomputes the bounds from the current window and
// publishes them when they ratchet upward (or on the first arming).
func (cal *calibrator) deriveLocked() {
	cal.pending = 0
	sorted := append([]int64(nil), cal.window...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	qi := int(float64(len(sorted)) * calQuantile)
	if qi >= len(sorted) {
		qi = len(sorted) - 1
	}
	q, tail := sorted[qi], sorted[len(sorted)-1]
	budget := int64(float64(q) * calHeadroom)
	if budget < calMinOps {
		budget = calMinOps
	}
	retry := 2 * float64(tail) / float64(q)
	if retry < calRetryMin {
		retry = calRetryMin
	}
	if retry > calRetryMax {
		retry = calRetryMax
	}
	// Monotone ratchet: never publish a bound below one a worker may
	// already have armed.
	raised := cal.gen.Load() == 0
	if budget > cal.budget {
		cal.budget = budget
		raised = true
	}
	if retry > cal.retry {
		cal.retry = retry
		raised = true
	}
	if !raised {
		return
	}
	cal.updates++
	cal.gen.Add(1)
	cal.instr.calibrationUpdate(cal.budget, cal.total)
}

// apply adopts the latest published bounds onto a worker's engine, if a
// new generation appeared since the worker last looked. Called by the
// owning worker strictly between faults, so an in-flight analysis never
// sees its budget change; the single atomic load keeps the
// nothing-changed path free of locks and allocations. Returns the
// generation the worker is now on.
func (cal *calibrator) apply(e *diffprop.Engine, seen uint64) uint64 {
	if cal == nil {
		return seen
	}
	g := cal.gen.Load()
	if g == seen {
		return seen
	}
	cal.mu.Lock()
	budget, retry := cal.budget, cal.retry
	cal.mu.Unlock()
	e.SetFaultBudget(budget)
	rec := cal.base
	if rec.RetryMultiplier <= 1 {
		// The ladder's retry rung is what turns a calibrated abort into a
		// rescue instead of a degradation, so calibration arms it whenever
		// the campaign config didn't pin its own multiplier.
		rec.RetryMultiplier = retry
	}
	e.SetRecovery(rec)
	return g
}

// snapshot reports the final calibration state for CampaignStats.
func (cal *calibrator) snapshot() (budget int64, retry float64, updates int) {
	if cal == nil {
		return 0, 0, 0
	}
	cal.mu.Lock()
	defer cal.mu.Unlock()
	if cal.gen.Load() == 0 {
		return 0, 0, 0
	}
	return cal.budget, cal.retry, cal.updates
}
