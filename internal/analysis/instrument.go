// Observability wiring for the campaign runners.
//
// A campaignInstr turns runner events (worker lifecycle, per-fault
// completions, GC passes, budget blows, calibration, campaign finish)
// into obs.Event values, one Emit per fact; the obs emitter feeds the
// heartbeat, metrics, flight ring and log from them. Besides events it
// only sets the gauges read from engine state, folds each fault's engine
// traffic (Campaign.AddWork), writes trace spans, and logs the campaign
// summary. A nil *campaignInstr — the default when CampaignConfig.Obs is
// unset — makes every hook return immediately without reading the clock
// or allocating, so the per-fault hot path is untouched when
// observability is off (a test pins it at zero allocations).
package analysis

import (
	"log/slog"
	"time"

	"repro/internal/bdd"
	"repro/internal/chaos"
	"repro/internal/diffprop"
	"repro/internal/obs"
)

// campaignInstr carries the observability handles of one campaign run.
type campaignInstr struct {
	o         *obs.Observer
	camp      *obs.Campaign
	cm        *obs.CampaignMetrics
	log       *slog.Logger
	total     int
	faultName func(i int) string

	// last holds each worker engine's counters as of its previous fault,
	// so each fault folds only its own traffic; slot w is written only by
	// worker w.
	last []diffprop.Stats
}

// outcomeLabel is each fault outcome's obs label.
var outcomeLabel = [...]uint8{
	outcomeExact:              obs.FlightLabelExact,
	outcomeDegraded:           obs.FlightLabelApproximate,
	outcomeErrored:            obs.FlightLabelError,
	outcomeRescued:            obs.FlightLabelRescued,
	outcomeDegradedAfterRetry: obs.FlightLabelApproximate,
}

// newCampaignInstr builds the instrumentation for one campaign, or nil
// when observability is off. name labels the heartbeat and log records
// (cfg.Name overrides); faultName renders fault i for traces.
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
	return &campaignInstr{
		o:         cfg.Obs,
		camp:      cfg.Obs.StartCampaign(name, total),
		cm:        cfg.Obs.CampaignMetrics(),
		log:       cfg.Obs.Logger().With("campaign", name),
		total:     total,
		faultName: faultName,
	}
}

// setup arms per-engine observability before workers start: GC events,
// traffic baselines, and phase timing when the tracer wants span
// breakdowns.
func (in *campaignInstr) setup(engines []*diffprop.Engine) {
	if in == nil {
		return
	}
	trace := in.o.Tracer.Enabled()
	in.last = make([]diffprop.Stats, len(engines))
	for w, e := range engines {
		if trace {
			e.EnablePhaseTiming(true)
		}
		// Baseline at the prototype-build state, so the traffic counters
		// carry only the campaign's faults.
		in.last[w] = e.Stats()
		e.Manager().SetGCHook(func(res bdd.GCResult) {
			in.camp.Emit(obs.Event{Kind: obs.FlightGC, Worker: w, Index: -1, A: int64(res.Reclaimed()), B: int64(res.After)})
		})
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
	in.camp.Emit(obs.Event{Kind: obs.FlightResume, Worker: -1, Index: -1, A: int64(n)})
}

func (in *campaignInstr) workerStart(w int) {
	if in == nil {
		return
	}
	in.camp.Emit(obs.Event{Kind: obs.FlightWorkerStart, Worker: w, Index: -1})
}

// workerClaim records one work-stealing block claim.
func (in *campaignInstr) workerClaim(w, lo, size int) {
	if in == nil {
		return
	}
	in.camp.Emit(obs.Event{Kind: obs.FlightWorkerClaim, Worker: w, Index: lo, A: int64(lo), B: int64(size)})
}

func (in *campaignInstr) workerDrain(w int) {
	if in == nil {
		return
	}
	in.camp.Emit(obs.Event{Kind: obs.FlightWorkerDrain, Worker: w, Index: -1})
}

// faultStart opens one fault's latency measurement. The zero time (and no
// clock read) when instrumentation is off.
func (in *campaignInstr) faultStart() time.Time {
	if in == nil {
		return time.Time{}
	}
	return time.Now()
}

// faultDone records one finished fault: its event, the engine gauges
// and traffic, and its trace span. Called from the worker that owns e, so
// reading the engine is safe.
func (in *campaignInstr) faultDone(e *diffprop.Engine, worker, i int, outcome faultOutcome, start time.Time) {
	if in == nil {
		return
	}
	in.record(e, worker, i, outcome, start, time.Since(start), 1)
}

// unitDone records the faults idx of one unit answered by a single shared
// analysis that began at start: each fault gets an equal slice of the unit's
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
	label := outcomeLabel[outcome]
	in.camp.Emit(obs.Event{Kind: obs.FlightFaultDone, Label: label, Worker: worker, Index: i, A: dur.Microseconds(), B: e.AnalysisOps() / int64(share)})
	m := e.Manager()
	in.cm.BDDNodes.Set(int64(m.NodeCount()))
	in.cm.BDDTableEpoch.Set(int64(m.TableEpoch()))
	_, buckets := m.TableLoad()
	in.cm.BDDTableBuckets.Set(buckets)
	// Cumulative engine deltas (not LastConeGates) so retried faults
	// count every attempt's walk, keeping the counters reconcilable with
	// CampaignStats at finish.
	s, prev := e.Stats(), in.last[worker]
	in.last[worker] = s
	hits, misses := s.Cache.Totals()
	prevHits, prevMisses := prev.Cache.Totals()
	in.camp.AddWork(obs.FaultWork{
		ConeGates:       int64(e.LastConeGates()),
		GatesVisited:    s.GatesVisited - prev.GatesVisited,
		GatesSkipped:    s.GatesSkipped - prev.GatesSkipped,
		GateEvaluations: s.GateEvaluations - prev.GateEvaluations,
		CacheHits:       hits - prevHits,
		CacheMisses:     misses - prevMisses,
	})
	if t := in.o.Tracer; t.Enabled() {
		ph, n := e.LastPhases(), time.Duration(share)
		t.Emit(obs.FaultSpan{ //nolint:errcheck // tracing is best-effort
			Index:     i,
			Fault:     in.faultName(i),
			Worker:    worker,
			Outcome:   obs.FlightLabelName(label),
			Start:     start,
			Dur:       dur,
			Build:     ph.Build / n,
			Propagate: ph.Propagate / n,
			SatCount:  ph.SatCount / n,
		})
	}
}

// ladderHook builds the budget-blow observer passed to analyze for fault
// i on worker w, or nil when observability is off — no closure is
// allocated then, preserving the zero-alloc disabled hot path.
func (in *campaignInstr) ladderHook(w, i int) func(attempt int, ops int64) {
	if in == nil {
		return nil
	}
	return func(attempt int, ops int64) {
		in.camp.Emit(obs.Event{Kind: obs.FlightBudgetBlow, Worker: w, Index: i, A: int64(attempt), B: ops})
	}
}

// chaosHook builds the injector's event hook: every firing becomes one
// chaos event, keyed by the fault index or sequence number it fired on.
func (in *campaignInstr) chaosHook() func(p chaos.Point, key int) {
	return func(p chaos.Point, key int) {
		in.camp.Emit(obs.Event{Kind: obs.FlightChaos, Label: obs.FlightLabelByName(p.String()), Worker: -1, Index: key})
	}
}

// calibrationUpdate records one published calibration generation: the
// armed budget and the sample population it came from.
func (in *campaignInstr) calibrationUpdate(budgetOps int64, samples int) {
	if in == nil {
		return
	}
	in.camp.Emit(obs.Event{Kind: obs.FlightCalibration, Worker: -1, Index: -1, A: budgetOps, B: int64(samples)})
}

// finish seals the campaign with its finish event and logs the summary.
func (in *campaignInstr) finish(stats CampaignStats) {
	if in == nil {
		return
	}
	label := obs.FlightLabelOK
	if stats.Canceled {
		label = obs.FlightLabelCanceled
	}
	skipped := in.total - stats.Faults - stats.Resumed
	in.cm.BDDPeakNodes.SetMax(int64(stats.PeakNodes))
	in.camp.Emit(obs.Event{Kind: obs.FlightCampaignFinish, Label: label, Worker: -1, Index: -1, A: int64(stats.Faults), B: int64(skipped)})
	in.log.Info("campaign finished",
		"faults", stats.Faults, "degraded", stats.Degraded, "errored", stats.Errored,
		"retried", stats.Retried, "rescued", stats.Rescued,
		"resumed", stats.Resumed, "skipped", skipped, "canceled", stats.Canceled,
		"shared_units", stats.SharedUnits,
		"gates_visited", stats.GatesVisited, "gates_skipped", stats.GatesSkipped,
		"elapsed", stats.Elapsed, "gate_evals", stats.GateEvaluations,
		"rebuilds", stats.Rebuilds, "nodes_reclaimed", stats.NodesReclaimed,
		"peak_nodes", stats.PeakNodes,
		"chaos_injected", stats.ChaosInjected,
		"calibration_updates", stats.CalibrationUpdates,
		"cache_hit_rate", stats.Cache.HitRate())
}
