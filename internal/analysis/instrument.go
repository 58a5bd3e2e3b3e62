// Observability wiring for the campaign runners.
//
// A campaignInstr translates runner events (worker lifecycle, per-fault
// completions, campaign finish) into the obs layer: heartbeat updates,
// metric increments, structured log records, and trace spans. A nil
// *campaignInstr — the default when CampaignConfig.Obs is unset — makes
// every hook return immediately without reading the clock or allocating,
// so the per-fault hot path is untouched when observability is off (a
// test pins it at zero allocations).
package analysis

import (
	"log/slog"
	"time"

	"repro/internal/bdd"
	"repro/internal/diffprop"
	"repro/internal/obs"
)

// campaignInstr carries the observability handles of one campaign run.
type campaignInstr struct {
	o         *obs.Observer
	camp      *obs.Campaign
	cm        *obs.CampaignMetrics
	log       *slog.Logger
	flight    *obs.FlightRecorder
	faultName func(i int) string

	// Per-worker cache-traffic and gate-walk baselines for the live
	// gauges/counters: each worker folds only the delta since its last
	// fault into the registry, and each slot is written only by its
	// owning worker.
	lastHits, lastMisses     []int64
	lastVisited, lastSkipped []int64
}

// newCampaignInstr builds the instrumentation for one campaign, or nil
// when observability is off. name labels the heartbeat and log records
// (cfg.Name overrides); faultName renders fault i for logs and traces.
func newCampaignInstr(cfg CampaignConfig, name string, total int, faultName func(i int) string) *campaignInstr {
	if cfg.Obs == nil {
		return nil
	}
	if cfg.Name != "" {
		name = cfg.Name
	}
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.Instrument(cfg.Obs)
	}
	in := &campaignInstr{
		o:         cfg.Obs,
		camp:      cfg.Obs.StartCampaign(name, total),
		cm:        cfg.Obs.CampaignMetrics(),
		log:       cfg.Obs.Logger().With("campaign", name),
		flight:    cfg.Obs.Flight,
		faultName: faultName,
	}
	in.flight.Record(obs.FlightCampaignStart, obs.FlightLabelNone, -1, -1, int64(total), 0)
	return in
}

// setup arms per-engine observability before workers start: a structured
// logger per worker engine and phase timing when the tracer wants span
// breakdowns.
func (in *campaignInstr) setup(engines []*diffprop.Engine) {
	if in == nil {
		return
	}
	trace := in.o.Tracer.Enabled()
	in.lastHits = make([]int64, len(engines))
	in.lastMisses = make([]int64, len(engines))
	in.lastVisited = make([]int64, len(engines))
	in.lastSkipped = make([]int64, len(engines))
	for w, e := range engines {
		if in.o.Log != nil {
			e.SetLogger(in.o.Log.With("worker", w))
		}
		if trace {
			e.EnablePhaseTiming(true)
		}
		// Baseline the cache and gate-walk counters at the prototype-build
		// state so the live gauges carry only campaign traffic.
		in.lastHits[w], in.lastMisses[w] = e.CacheTraffic()
		in.lastVisited[w], in.lastSkipped[w] = e.GateWalk()
		if in.flight != nil {
			worker := w
			e.Manager().SetGCHook(func(res bdd.GCResult) {
				in.flight.Record(obs.FlightGC, obs.FlightLabelNone, worker, -1,
					int64(res.Reclaimed()), int64(res.After))
			})
		}
	}
	if len(engines) > 0 {
		in.cm.BDDTableViews.Set(int64(engines[0].Manager().Views()))
		_, buckets := engines[0].Manager().TableLoad()
		in.cm.BDDTableBuckets.Set(buckets)
	}
}

// resumed records n checkpoint-restored faults.
func (in *campaignInstr) resumed(n int) {
	if in == nil || n == 0 {
		return
	}
	in.camp.AddResumed(n)
	in.cm.FaultsDone.Add(int64(n))
	in.cm.FaultsResumed.Add(int64(n))
	in.flight.Record(obs.FlightResume, obs.FlightLabelNone, -1, -1, int64(n), 0)
	in.log.Info("checkpoint resume", "records", n)
}

func (in *campaignInstr) workerStart(w int) {
	if in == nil {
		return
	}
	in.flight.Record(obs.FlightWorkerStart, obs.FlightLabelNone, w, -1, 0, 0)
	in.log.Debug("worker start", "worker", w)
}

// workerClaim records one work-stealing block claim.
func (in *campaignInstr) workerClaim(w, lo, size int) {
	if in == nil {
		return
	}
	in.flight.Record(obs.FlightWorkerClaim, obs.FlightLabelNone, w, lo, int64(lo), int64(size))
	in.log.Debug("worker claim", "worker", w, "lo", lo, "size", size)
}

func (in *campaignInstr) workerDrain(w int) {
	if in == nil {
		return
	}
	in.flight.Record(obs.FlightWorkerDrain, obs.FlightLabelNone, w, -1, 0, 0)
	in.log.Debug("worker drain", "worker", w)
}

// faultStart opens one fault's latency measurement. The zero time (and no
// clock read) when instrumentation is off.
func (in *campaignInstr) faultStart() time.Time {
	if in == nil {
		return time.Time{}
	}
	return time.Now()
}

// faultDone records one finished fault: heartbeat, outcome counters,
// latency histogram, live node gauge, budget-blowout log, trace span.
// Called from the worker that owns e, so reading the engine is safe.
func (in *campaignInstr) faultDone(e *diffprop.Engine, worker, i int, outcome faultOutcome, start time.Time) {
	if in == nil {
		return
	}
	in.record(e, worker, i, outcome, start, time.Since(start), 1)
}

// unitDone records the faults idx of one unit answered by a single shared
// walk that began at start: each fault gets an equal slice of the unit's
// wall time, ops and phase times, laid end to end from start, so the
// per-fault channels add up to the unit's cost.
func (in *campaignInstr) unitDone(e *diffprop.Engine, worker int, idx []int, start time.Time) {
	if in == nil {
		return
	}
	dur := time.Since(start) / time.Duration(len(idx))
	for k, i := range idx {
		in.record(e, worker, i, outcomeExact, start.Add(time.Duration(k)*dur), dur, len(idx))
	}
}

// record is faultDone for a fault charged dur of wall time and 1/share
// of the engine's last analysis.
func (in *campaignInstr) record(e *diffprop.Engine, worker, i int, outcome faultOutcome, start time.Time, dur time.Duration, share int) {
	oc := obs.OutcomeExact
	switch outcome {
	case outcomeDegraded, outcomeDegradedAfterRetry:
		oc = obs.OutcomeApproximate
	case outcomeRescued:
		oc = obs.OutcomeRescued
	case outcomeErrored:
		oc = obs.OutcomeError
	}
	in.camp.FaultDone(oc)
	in.cm.FaultsDone.Inc()
	switch oc {
	case obs.OutcomeApproximate:
		in.cm.FaultsDegraded.Inc()
	case obs.OutcomeRescued:
		in.cm.FaultsExact.Inc()
		in.cm.FaultsRescued.Inc()
	case obs.OutcomeError:
		in.cm.FaultsErrored.Inc()
	default:
		in.cm.FaultsExact.Inc()
	}
	in.cm.FaultLatency.Observe(dur.Seconds())
	in.cm.BDDNodes.Set(int64(e.Manager().NodeCount()))
	in.cm.BDDTableEpoch.Set(int64(e.Manager().TableEpoch()))
	in.flight.Record(obs.FlightFaultDone, obs.FlightOutcomeLabel(oc), worker, i,
		dur.Microseconds(), e.AnalysisOps()/int64(share))
	if in.lastHits != nil && worker < len(in.lastHits) {
		h, m := e.CacheTraffic()
		in.cm.CacheHitsLive.Add(h - in.lastHits[worker])
		in.cm.CacheMissesLive.Add(m - in.lastMisses[worker])
		in.lastHits[worker], in.lastMisses[worker] = h, m
	}
	in.cm.ConeGates.Observe(float64(e.LastConeGates()))
	if in.lastVisited != nil && worker < len(in.lastVisited) {
		// Cumulative engine deltas (not LastConeGates) so retried faults
		// count every attempt's walk, keeping the counters reconcilable
		// with CampaignStats.GatesVisited/GatesSkipped at finish.
		v, sk := e.GateWalk()
		dv, ds := v-in.lastVisited[worker], sk-in.lastSkipped[worker]
		in.cm.GatesVisited.Add(dv)
		in.cm.GatesSkipped.Add(ds)
		in.camp.AddGateWalk(dv, ds)
		in.lastVisited[worker], in.lastSkipped[worker] = v, sk
	}
	_, buckets := e.Manager().TableLoad()
	in.cm.BDDTableBuckets.Set(buckets)
	switch outcome {
	case outcomeDegraded:
		in.log.Warn("fault budget blown, degraded to simulation estimate",
			"index", i, "fault", in.faultName(i), "ops_charged", e.LastAbortOps(), "elapsed", dur)
	case outcomeDegradedAfterRetry:
		in.log.Warn("fault blew the relaxed retry budget too, degraded to simulation estimate",
			"index", i, "fault", in.faultName(i), "ops_charged", e.LastAbortOps(), "elapsed", dur)
	case outcomeRescued:
		in.log.Info("fault rescued: relaxed-budget retry completed exactly",
			"index", i, "fault", in.faultName(i), "elapsed", dur)
	case outcomeErrored:
		in.log.Warn("fault analysis panicked, recorded as per-fault error",
			"index", i, "fault", in.faultName(i), "elapsed", dur)
	}
	if t := in.o.Tracer; t.Enabled() {
		ph, n := e.LastPhases(), time.Duration(share)
		t.Emit(obs.FaultSpan{ //nolint:errcheck // tracing is best-effort
			Index:     i,
			Fault:     in.faultName(i),
			Worker:    worker,
			Outcome:   oc.String(),
			Start:     start,
			Dur:       dur,
			Build:     ph.Build / n,
			Propagate: ph.Propagate / n,
			SatCount:  ph.SatCount / n,
		})
	}
}

// ladderHook builds the budget-blow observer passed to analyzeStuckAt /
// analyzeBridging for fault i on worker w, or nil when nothing records
// flight events — no closure is allocated then, preserving the zero-alloc
// disabled hot path.
func (in *campaignInstr) ladderHook(w, i int) func(attempt int, ops int64) {
	if in == nil || in.flight == nil {
		return nil
	}
	return func(attempt int, ops int64) {
		in.flight.Record(obs.FlightBudgetBlow, obs.FlightLabelNone, w, i, int64(attempt), ops)
	}
}

// calibrationUpdate records one published calibration generation: the
// armed budget gauge, the update counter, and a log line tying the new
// bounds to the sample population they came from.
func (in *campaignInstr) calibrationUpdate(budgetOps int64, retryMult float64, samples int) {
	if in == nil {
		return
	}
	in.cm.CalibrationBudgetOps.Set(budgetOps)
	in.cm.CalibrationUpdates.Inc()
	in.flight.Record(obs.FlightCalibration, obs.FlightLabelNone, -1, -1, budgetOps, int64(samples))
	in.log.Info("budget calibration published",
		"budget_ops", budgetOps, "retry_multiplier", retryMult, "samples", samples)
}

// finish seals the heartbeat and folds the campaign totals into the
// registry-level metrics.
func (in *campaignInstr) finish(stats CampaignStats) {
	if in == nil {
		return
	}
	in.camp.Finish(stats.Canceled)
	in.cm.CampaignsRunning.Add(-1)
	finishLabel := obs.FlightLabelOK
	if stats.Canceled {
		finishLabel = obs.FlightLabelCanceled
	}
	in.cm.GateEvaluations.Add(stats.GateEvaluations)
	in.cm.BDDRebuilds.Add(int64(stats.Rebuilds))
	in.cm.BDDPeakNodes.SetMax(int64(stats.PeakNodes))
	in.cm.CacheHits.Add(stats.Cache.ApplyHits + stats.Cache.IteHits + stats.Cache.NotHits)
	in.cm.CacheMisses.Add(stats.Cache.ApplyMisses + stats.Cache.IteMisses + stats.Cache.NotMisses)
	in.cm.RecoveryRetries.Add(int64(stats.Retried))
	in.cm.RecoveryNodesReclaimed.Add(stats.NodesReclaimed)
	in.cm.ChaosInjected.Add(stats.ChaosInjected)
	snap := in.camp.Snapshot()
	in.cm.FaultsSkipped.Add(snap.Skipped)
	in.flight.Record(obs.FlightCampaignFinish, finishLabel, -1, -1, int64(stats.Faults), snap.Skipped)
	in.log.Info("campaign finished",
		"faults", stats.Faults, "degraded", stats.Degraded, "errored", stats.Errored,
		"retried", stats.Retried, "rescued", stats.Rescued,
		"resumed", stats.Resumed, "skipped", snap.Skipped, "canceled", stats.Canceled,
		"shared_units", stats.SharedUnits,
		"gates_visited", stats.GatesVisited, "gates_skipped", stats.GatesSkipped,
		"elapsed", stats.Elapsed, "gate_evals", stats.GateEvaluations,
		"rebuilds", stats.Rebuilds, "nodes_reclaimed", stats.NodesReclaimed,
		"peak_nodes", stats.PeakNodes,
		"chaos_injected", stats.ChaosInjected,
		"calibration_updates", stats.CalibrationUpdates,
		"cache_hit_rate", stats.Cache.HitRate())
}
