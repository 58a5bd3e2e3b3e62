// Package obs is the repository's unified observability layer: a
// zero-dependency (standard library only) metrics registry, structured
// logging helpers, a per-fault span tracer, live campaign heartbeats, a
// flight recorder, and a debug HTTP server tying them together. Every
// campaign, checkpoint, chaos and supervisor fact enters through one
// emitter (Observer.Emit, emit.go), which feeds each of those sinks from
// one table keyed by the event's kind.
//
// Everything here is default-off and nil-safe. A nil *Observer, *Campaign,
// *Tracer, *Counter, *Gauge or *Histogram accepts every method call as a
// no-op, so instrumented code never branches into allocation or
// synchronization when observability is disabled — the serial==parallel
// bit-identical guarantees of the analysis layer and its hot-path
// benchmarks are untouched (a CI guard pins the disabled per-fault path at
// zero allocations).
package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Observer is the umbrella handle threaded through campaign runners: an
// optional structured logger, an optional metrics registry, an optional
// per-fault tracer, and the set of live campaign heartbeats served at
// /progress. The zero value (and nil) disable everything.
type Observer struct {
	// Log receives structured events (nil = silent; use Logger for a
	// never-nil view).
	Log *slog.Logger
	// Metrics, when non-nil, accumulates counters/gauges/histograms for
	// the /metrics and /debug/vars endpoints.
	Metrics *Registry
	// Tracer, when non-nil, streams one span event per analyzed fault.
	Tracer *Tracer
	// Flight, when non-nil, retains a bounded ring of structured campaign
	// events for post-mortem dumps (see flight.go).
	Flight *FlightRecorder

	mu        sync.Mutex
	campaigns []*Campaign
	timeline  *Timeline
	cmOnce    sync.Once
	cm        *CampaignMetrics
}

// Logger returns the observer's logger, or a no-op logger when the
// observer (or its Log field) is nil. The result is never nil.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return Nop()
	}
	return o.Log
}

// StartCampaign registers a new live campaign heartbeat and emits its
// campaign_start event. A nil observer returns a nil (no-op) campaign.
func (o *Observer) StartCampaign(name string, total int) *Campaign {
	if o == nil {
		return nil
	}
	c := &Campaign{o: o, name: name, total: int64(total), start: time.Now()}
	if o.Log != nil {
		c.log = o.Log.With("campaign", name)
	}
	o.mu.Lock()
	o.campaigns = append(o.campaigns, c)
	o.mu.Unlock()
	c.Emit(Event{Kind: FlightCampaignStart, Worker: -1, Index: -1, A: int64(total)})
	return c
}

// Campaigns lists every campaign started under this observer, in start
// order (nil-safe).
func (o *Observer) Campaigns() []*Campaign {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Campaign(nil), o.campaigns...)
}

// ProgressSnapshot is the JSON body of the /progress heartbeat endpoint.
type ProgressSnapshot struct {
	Campaigns []CampaignSnapshot `json:"campaigns"`
	// FaultLatency carries p50/p95/p99 of per-fault analysis time,
	// present once the latency histogram has observations.
	FaultLatency *LatencyQuantiles `json:"fault_latency,omitempty"`
}

// LatencyQuantiles summarizes the fault-latency histogram for /progress
// and post-mortem reports.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
}

// Progress snapshots every campaign (nil-safe).
func (o *Observer) Progress() ProgressSnapshot {
	snap := ProgressSnapshot{Campaigns: []CampaignSnapshot{}}
	for _, c := range o.Campaigns() {
		snap.Campaigns = append(snap.Campaigns, c.Snapshot())
	}
	if o != nil && o.Metrics != nil {
		if h := o.CampaignMetrics().FaultLatency; h.Count() > 0 {
			s := h.Snapshot()
			snap.FaultLatency = &LatencyQuantiles{
				Count: s.Count,
				P50:   s.Quantile(0.50),
				P95:   s.Quantile(0.95),
				P99:   s.Quantile(0.99),
			}
		}
	}
	return snap
}

// CampaignMetrics is the standard metric set of the campaign runners,
// registered once per observer under stable Prometheus names. All fields
// are nil (no-op) when the observer has no registry.
type CampaignMetrics struct {
	// campaign_faults_done_total etc.: per-fault outcome counters.
	FaultsDone, FaultsExact, FaultsDegraded, FaultsErrored, FaultsResumed, FaultsSkipped *Counter
	// campaign_fault_latency_seconds: per-fault wall-clock latency.
	FaultLatency *Histogram
	// campaign_gate_evaluations_total: selective-trace work actually done.
	GateEvaluations *Counter
	// campaign_cone_gates: per-fault size of the merged fan-out cone the
	// propagation loop walked (the full gate count under the full-scan
	// reference) — the cone-size distribution behind scheduling reports.
	ConeGates *Histogram
	// campaign_gates_visited_total / campaign_gates_skipped_total: gates
	// the propagation loops examined versus gates cone restriction never
	// touched.
	GatesVisited, GatesSkipped *Counter
	// campaigns_running: currently active campaign count.
	CampaignsRunning *Gauge
	// bdd_nodes / bdd_peak_nodes: live and high-water node-table sizes.
	BDDNodes, BDDPeakNodes *Gauge
	// bdd_rebuilds_total: generational GC passes over all engines.
	BDDRebuilds *Counter
	// bdd_table_views / bdd_table_epoch: shared-backend shape — manager
	// views attached to the campaign's node table, and the table's
	// in-place adoption generation (GC count visible to all views).
	BDDTableViews, BDDTableEpoch *Gauge
	// bdd_cache_hits_total / bdd_cache_misses_total: operation-cache
	// traffic of the campaign's faults (prototype synthesis excluded).
	CacheHits, CacheMisses *Counter
	// bdd_table_buckets: hash-bucket capacity of the campaign's unique
	// table; with bdd_nodes it yields the table occupancy (load factor).
	BDDTableBuckets *Gauge
	// checkpoint_appends_total / checkpoint_fsyncs_total: persistence I/O.
	CheckpointAppends, CheckpointFsyncs *Counter
	// campaign_faults_rescued_total: faults the recovery-ladder retry
	// converted from a blown budget back to an exact result (a sub-count of
	// campaign_faults_exact_total).
	FaultsRescued *Counter
	// recovery_retries_total: relaxed-budget re-attempts the ladder made.
	RecoveryRetries *Counter
	// recovery_nodes_reclaimed_total: dead nodes dropped by GC passes
	// across all engines.
	RecoveryNodesReclaimed *Counter
	// chaos_injected_total: failures fired by the chaos-injection harness
	// (0 outside chaos runs).
	ChaosInjected *Counter
	// calibration_budget_ops: the per-fault op budget currently armed by
	// budget self-calibration (0 until the warmup window fills).
	CalibrationBudgetOps *Gauge
	// calibration_updates_total: budget re-derivations published by the
	// calibrator (the first arming and every refresh that raised a bound).
	CalibrationUpdates *Counter
	// supervisor_worker_deaths_total: shard worker subprocesses that died
	// (exit, heartbeat stall, or OOM-style kill) under supervision.
	SupervisorWorkerDeaths *Counter
	// supervisor_restarts_total: lease re-dispatches after worker death.
	SupervisorRestarts *Counter
	// supervisor_bisects_total: repeatedly-fatal shard splits.
	SupervisorBisects *Counter
	// supervisor_quarantined_total: poison faults isolated as Err records.
	SupervisorQuarantined *Counter
	// supervisor_workers_live: worker subprocesses currently running.
	SupervisorWorkersLive *Gauge
}

// CampaignMetrics lazily registers (once) and returns the standard
// campaign metric set. A nil observer — or one without a registry —
// returns a *CampaignMetrics whose fields are all nil and therefore
// no-ops.
func (o *Observer) CampaignMetrics() *CampaignMetrics {
	if o == nil || o.Metrics == nil {
		return &CampaignMetrics{}
	}
	o.cmOnce.Do(func() { o.cm = newCampaignMetrics(o.Metrics) })
	return o.cm
}

func newCampaignMetrics(r *Registry) *CampaignMetrics {
	cm := &CampaignMetrics{
		FaultsDone:      r.Counter("campaign_faults_done_total", "Faults finished (analyzed or restored from checkpoint)."),
		FaultsExact:     r.Counter("campaign_faults_exact_total", "Faults analyzed exactly."),
		FaultsDegraded:  r.Counter("campaign_faults_degraded_total", "Faults that blew their budget and degraded to simulation estimates."),
		FaultsErrored:   r.Counter("campaign_faults_errored_total", "Faults whose analysis panicked (isolated per-fault errors)."),
		FaultsResumed:   r.Counter("campaign_faults_resumed_total", "Faults restored from a checkpoint instead of re-analyzed."),
		FaultsSkipped:   r.Counter("campaign_faults_skipped_total", "Faults never reached because the campaign was cancelled."),
		FaultLatency:    r.Histogram("campaign_fault_latency_seconds", "Per-fault analysis wall-clock latency."),
		GateEvaluations: r.Counter("campaign_gate_evaluations_total", "Gates whose difference function was computed (selective trace skipped the rest)."),
		ConeGates: r.Histogram("campaign_cone_gates", "Per-fault merged fan-out-cone size walked by cone-restricted propagation.",
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536),
		GatesVisited:      r.Counter("campaign_gates_visited_total", "Gates examined by the propagation loops across all analyses."),
		GatesSkipped:      r.Counter("campaign_gates_skipped_total", "Gates cone-restricted propagation never touched (0 under the full-scan reference)."),
		CampaignsRunning:  r.Gauge("campaigns_running", "Campaigns currently running."),
		BDDNodes:          r.Gauge("bdd_nodes", "Most recently observed BDD node-table size of any worker engine."),
		BDDPeakNodes:      r.Gauge("bdd_peak_nodes", "Largest BDD node table any single engine reached."),
		BDDRebuilds:       r.Counter("bdd_rebuilds_total", "Generational BDD-manager GC passes over all engines."),
		BDDTableViews:     r.Gauge("bdd_table_views", "Manager views sharing the campaign's BDD node table (one per worker)."),
		BDDTableEpoch:     r.Gauge("bdd_table_epoch", "In-place adoption generation of the shared node table (bumps on GC)."),
		CacheHits:         r.Counter("bdd_cache_hits_total", "BDD apply/ite/not operation-cache hits."),
		CacheMisses:       r.Counter("bdd_cache_misses_total", "BDD apply/ite/not operation-cache misses."),
		BDDTableBuckets:   r.Gauge("bdd_table_buckets", "Hash-bucket capacity of the campaign's BDD unique table."),
		CheckpointAppends: r.Counter("checkpoint_appends_total", "Fault records appended to the checkpoint file."),
		CheckpointFsyncs:  r.Counter("checkpoint_fsyncs_total", "fsync calls issued by the checkpointer."),

		FaultsRescued:          r.Counter("campaign_faults_rescued_total", "Faults whose relaxed-budget retry completed exactly (sub-count of exact)."),
		RecoveryRetries:        r.Counter("recovery_retries_total", "Relaxed-budget re-attempts made by the recovery ladder."),
		RecoveryNodesReclaimed: r.Counter("recovery_nodes_reclaimed_total", "Dead BDD nodes dropped by generational GC passes."),
		ChaosInjected:          r.Counter("chaos_injected_total", "Failures fired by the chaos-injection harness."),
		CalibrationBudgetOps:   r.Gauge("calibration_budget_ops", "Per-fault op budget currently armed by budget self-calibration."),
		CalibrationUpdates:     r.Counter("calibration_updates_total", "Budget re-derivations published by the calibrator."),

		SupervisorWorkerDeaths: r.Counter("supervisor_worker_deaths_total", "Shard worker subprocesses that died under supervision."),
		SupervisorRestarts:     r.Counter("supervisor_restarts_total", "Lease re-dispatches after worker death."),
		SupervisorBisects:      r.Counter("supervisor_bisects_total", "Repeatedly-fatal shard splits."),
		SupervisorQuarantined:  r.Counter("supervisor_quarantined_total", "Poison faults isolated as Err records."),
		SupervisorWorkersLive:  r.Gauge("supervisor_workers_live", "Worker subprocesses currently running."),
	}
	r.GaugeFunc("bdd_cache_hit_ratio", "Overall BDD operation-cache hit fraction.", func() float64 {
		hits, misses := cm.CacheHits.Value(), cm.CacheMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	return cm
}

// Campaign is the live heartbeat of one running campaign, updated by the
// campaign's events (Emit) and engine traffic (AddWork). All counters
// are atomics so the /progress endpoint can read them while workers
// update them; every method is nil-safe.
type Campaign struct {
	o     *Observer
	log   *slog.Logger // the observer's logger with the campaign name; nil = silent
	name  string
	total int64
	start time.Time
	now   func() time.Time // test clock; nil = time.Now

	done, exact, degraded, errored, resumed, skipped atomic.Int64
	rescued                                          atomic.Int64
	gatesVisited, gatesSkipped                       atomic.Int64
	canceled, finished                               atomic.Bool
	elapsedNS                                        atomic.Int64

	// Sliding window of recent completion times (ns since start) feeding
	// the ETA projection, so early slow faults or a bulk checkpoint
	// restore don't skew the forecast for the rest of the run.
	winMu  sync.Mutex
	win    [etaWindow]int64
	winLen int
	winPos int
}

// etaWindow is how many recent completions the ETA projection looks at.
const etaWindow = 64

func (c *Campaign) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// faultDone counts one finished fault by its outcome label. A rescued
// fault counts as exact and as rescued: rescued faults ARE exact results,
// just ones the recovery ladder had to fight for.
func (c *Campaign) faultDone(label uint8) {
	c.done.Add(1)
	c.winMu.Lock()
	c.win[c.winPos] = int64(c.clock().Sub(c.start))
	c.winPos = (c.winPos + 1) % etaWindow
	if c.winLen < etaWindow {
		c.winLen++
	}
	c.winMu.Unlock()
	switch label {
	case FlightLabelExact:
		c.exact.Add(1)
	case FlightLabelRescued:
		c.exact.Add(1)
		c.rescued.Add(1)
	case FlightLabelApproximate:
		c.degraded.Add(1)
	case FlightLabelError:
		c.errored.Add(1)
	}
}

// addResumed counts n faults restored from a checkpoint (done without
// being analyzed).
func (c *Campaign) addResumed(n int64) {
	c.resumed.Add(n)
	c.done.Add(n)
}

// finish seals the heartbeat: cancellation state, unreached (skipped)
// fault count, and final elapsed time. After it the snapshot's counts
// are immutable and reconcile exactly with the campaign's final
// CampaignStats.
func (c *Campaign) finish(canceled bool) {
	c.canceled.Store(canceled)
	c.skipped.Store(c.total - c.done.Load())
	c.elapsedNS.Store(int64(c.clock().Sub(c.start)))
	c.finished.Store(true)
}

// CampaignSnapshot is the JSON view of one campaign heartbeat.
type CampaignSnapshot struct {
	Name  string `json:"name"`
	Total int64  `json:"total"`
	// Done = Analyzed + Resumed.
	Done     int64 `json:"done"`
	Analyzed int64 `json:"analyzed"`
	Exact    int64 `json:"exact"`
	// Rescued is the sub-count of Exact that needed the recovery ladder's
	// relaxed-budget retry.
	Rescued  int64 `json:"rescued"`
	Degraded int64 `json:"degraded"`
	Errored  int64 `json:"errored"`
	Resumed  int64 `json:"resumed"`
	Skipped  int64 `json:"skipped"`
	Canceled bool  `json:"canceled"`
	Finished bool  `json:"finished"`
	// GatesVisited / GatesSkipped total the propagation loops' walk
	// footprint: their ratio is the structural saving of cone-restricted
	// propagation over the full-gate scan.
	GatesVisited int64 `json:"gates_visited,omitempty"`
	GatesSkipped int64 `json:"gates_skipped,omitempty"`
	// ElapsedSec is wall-clock time since campaign start (frozen at
	// Finish); FaultsPerSec the whole-run analysis throughput over it;
	// ETASec the projected remaining time. The projection divides by the
	// completion rate of a sliding window of recent faults (falling back
	// to the whole-run average until the window has two entries), so a
	// slow warmup or a bulk checkpoint restore doesn't skew it for the
	// rest of the run. Zero when finished or nothing has completed yet.
	ElapsedSec   float64 `json:"elapsed_s"`
	FaultsPerSec float64 `json:"faults_per_s"`
	ETASec       float64 `json:"eta_s"`
}

// Snapshot captures the heartbeat's current state (zero value on nil).
func (c *Campaign) Snapshot() CampaignSnapshot {
	if c == nil {
		return CampaignSnapshot{}
	}
	s := CampaignSnapshot{
		Name:     c.name,
		Total:    c.total,
		Done:     c.done.Load(),
		Exact:    c.exact.Load(),
		Rescued:  c.rescued.Load(),
		Degraded: c.degraded.Load(),
		Errored:  c.errored.Load(),
		Resumed:  c.resumed.Load(),
		Skipped:  c.skipped.Load(),
		Canceled: c.canceled.Load(),
		Finished: c.finished.Load(),
	}
	s.GatesVisited = c.gatesVisited.Load()
	s.GatesSkipped = c.gatesSkipped.Load()
	s.Analyzed = s.Exact + s.Degraded + s.Errored
	now := c.clock()
	elapsed := time.Duration(c.elapsedNS.Load())
	if !s.Finished {
		elapsed = now.Sub(c.start)
	}
	s.ElapsedSec = elapsed.Seconds()
	if s.ElapsedSec > 0 && s.Analyzed > 0 {
		s.FaultsPerSec = float64(s.Analyzed) / s.ElapsedSec
		if !s.Finished {
			rate := s.FaultsPerSec
			if r := c.recentRate(now); r > 0 {
				rate = r
			}
			s.ETASec = float64(c.total-s.Done) / rate
		}
	}
	return s
}

// recentRate is the completion rate (faults/sec) over the sliding window:
// the window's fault count divided by the wall-clock span from its oldest
// completion to now — so a stall since the last completion lowers the
// rate instead of hiding behind a stale average. Zero until the window
// has at least two completions.
func (c *Campaign) recentRate(now time.Time) float64 {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	if c.winLen < 2 {
		return 0
	}
	oldest := c.win[(c.winPos-c.winLen+etaWindow)%etaWindow]
	span := float64(int64(now.Sub(c.start))-oldest) / float64(time.Second)
	if span <= 0 {
		return 0
	}
	return float64(c.winLen) / span
}
