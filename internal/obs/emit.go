// The event stream: every campaign, checkpoint, chaos and supervisor fact
// is one Event, and Emit is its only writer. One table keyed by the
// event's kind decides everything about it — it lands in the flight
// ring, which counters or histograms it moves, how it updates a campaign
// heartbeat, and which slog message and level it logs at — so every
// channel reports the same facts because they all derive from one call.
package obs

import (
	"context"
	"log/slog"
)

// Event is one fact of a campaign's life. Its payload is exactly a
// flight slot's: a kind, a label qualifying it, the worker and index it
// concerns (-1 when none), and two kind-specific integers (see the
// FlightKind constants for what A and B hold).
type Event struct {
	Kind   FlightKind
	Label  uint8
	Worker int
	Index  int
	A, B   int64
}

// kindSpec is one row of the kinds table. msg is the slog message (""
// logs nothing) at level; label, index, a and b are the attribute keys
// the payload logs under ("" omits that field; the worker always logs as
// "worker" when set). count moves the kind's metrics and beat updates a
// campaign heartbeat (nil = none).
type kindSpec struct {
	msg                string
	level              slog.Level
	label, index, a, b string
	count              func(m *CampaignMetrics, ev Event)
	beat               func(c *Campaign, ev Event)
}

var kinds = [flightKindCount]kindSpec{
	FlightCampaignStart: {msg: "campaign start", level: slog.LevelDebug, a: "faults",
		count: func(m *CampaignMetrics, _ Event) { m.CampaignsRunning.Add(1) }},
	FlightResume: {msg: "checkpoint resume", level: slog.LevelInfo, a: "records",
		count: func(m *CampaignMetrics, ev Event) { m.FaultsDone.Add(ev.A); m.FaultsResumed.Add(ev.A) },
		beat:  func(c *Campaign, ev Event) { c.addResumed(ev.A) }},
	FlightWorkerStart: {msg: "worker start", level: slog.LevelDebug},
	FlightWorkerClaim: {msg: "worker claim", level: slog.LevelDebug, index: "lo", b: "size"},
	FlightWorkerDrain: {msg: "worker drain", level: slog.LevelDebug},
	FlightFaultDone: {msg: "fault done", level: slog.LevelDebug, label: "outcome", index: "index", a: "us", b: "ops",
		count: countFault,
		beat:  func(c *Campaign, ev Event) { c.faultDone(ev.Label) }},
	// A relaxed-budget retry is counted when it ends: blown again here,
	// or rescued in countFault.
	FlightBudgetBlow: {msg: "fault budget blown", level: slog.LevelInfo, index: "index", a: "attempt", b: "ops_charged",
		count: func(m *CampaignMetrics, ev Event) {
			if ev.A >= 2 {
				m.RecoveryRetries.Inc()
			}
		}},
	FlightGC: {msg: "bdd gc", level: slog.LevelDebug, a: "reclaimed", b: "live",
		count: func(m *CampaignMetrics, ev Event) { m.BDDRebuilds.Inc(); m.RecoveryNodesReclaimed.Add(ev.A) }},
	FlightCalibration: {msg: "budget calibration published", level: slog.LevelInfo, a: "budget_ops", b: "samples",
		count: func(m *CampaignMetrics, ev Event) { m.CalibrationBudgetOps.Set(ev.A); m.CalibrationUpdates.Inc() }},
	FlightChaos: {msg: "chaos injection fired", level: slog.LevelInfo, label: "point", index: "key",
		count: func(m *CampaignMetrics, _ Event) { m.ChaosInjected.Inc() }},
	FlightCheckpointAppend: {msg: "checkpoint append", level: slog.LevelDebug, index: "index", a: "bytes",
		count: func(m *CampaignMetrics, _ Event) { m.CheckpointAppends.Inc() }},
	FlightCheckpointFsync: {msg: "checkpoint fsync", level: slog.LevelDebug, a: "appended",
		count: func(m *CampaignMetrics, _ Event) { m.CheckpointFsyncs.Inc() }},
	FlightCheckpointError: {msg: "checkpoint poisoned", level: slog.LevelError, label: "op", index: "index"},
	// The finish fact logs as the caller's campaign summary line, which
	// carries more than an event can.
	FlightCampaignFinish: {
		count: func(m *CampaignMetrics, ev Event) { m.CampaignsRunning.Add(-1); m.FaultsSkipped.Add(ev.B) },
		beat:  func(c *Campaign, ev Event) { c.finish(ev.Label == FlightLabelCanceled) }},
	FlightSpawn: {msg: "worker launched", level: slog.LevelInfo, index: "shard_lo", a: "size", b: "attempt"},
	FlightWorkerDeath: {msg: "worker died", level: slog.LevelWarn, label: "cause", index: "shard_lo", a: "exit", b: "done",
		count: func(m *CampaignMetrics, _ Event) { m.SupervisorWorkerDeaths.Inc() }},
	FlightRestart: {msg: "lease re-dispatched", level: slog.LevelInfo, index: "shard_lo", a: "attempt", b: "backoff_us",
		count: func(m *CampaignMetrics, _ Event) { m.SupervisorRestarts.Inc() }},
	FlightBisect: {msg: "shard bisected", level: slog.LevelWarn, index: "shard_lo", a: "size", b: "split",
		count: func(m *CampaignMetrics, _ Event) { m.SupervisorBisects.Inc() }},
	FlightQuarantine: {msg: "poison fault quarantined", level: slog.LevelWarn, index: "fault", a: "deaths",
		count: func(m *CampaignMetrics, _ Event) { m.SupervisorQuarantined.Inc() }},
}

// countFault moves the outcome counters and the latency histogram of one
// finished fault. A rescued fault is exact too, and ends a retry.
func countFault(m *CampaignMetrics, ev Event) {
	m.FaultsDone.Inc()
	m.FaultLatency.Observe(float64(ev.A) / 1e6)
	switch ev.Label {
	case FlightLabelApproximate:
		m.FaultsDegraded.Inc()
	case FlightLabelError:
		m.FaultsErrored.Inc()
	case FlightLabelRescued:
		m.FaultsExact.Inc()
		m.FaultsRescued.Inc()
		m.RecoveryRetries.Inc()
	default:
		m.FaultsExact.Inc()
	}
}

// labelLevel raises the log level of events whose label marks trouble or
// recovery, whatever their kind's own level.
var labelLevel = map[uint8]slog.Level{
	FlightLabelApproximate: slog.LevelWarn,
	FlightLabelError:       slog.LevelWarn,
	FlightLabelRescued:     slog.LevelInfo,
}

// Emit delivers one event to every channel its kind's row names. Safe on
// a nil observer (no-op) and for concurrent use; it allocates only to
// build a log record the logger will write.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	o.emit(ev, o.Log)
}

// Emit is Observer.Emit for an event of this campaign: it also updates
// the heartbeat, and logs with the campaign's name attached. Nil-safe.
func (c *Campaign) Emit(ev Event) {
	if c == nil {
		return
	}
	spec := &kinds[ev.Kind]
	if spec.beat != nil {
		spec.beat(c, ev)
	}
	c.o.emit(ev, c.log)
}

func (o *Observer) emit(ev Event, log *slog.Logger) {
	spec := &kinds[ev.Kind]
	o.Flight.Record(ev.Kind, ev.Label, ev.Worker, ev.Index, ev.A, ev.B)
	if spec.count != nil && o.Metrics != nil {
		spec.count(o.CampaignMetrics(), ev)
	}
	if log == nil || spec.msg == "" {
		return
	}
	level := spec.level
	if l, ok := labelLevel[ev.Label]; ok && l > level {
		level = l
	}
	ctx := context.Background()
	if !log.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 5)
	if ev.Worker >= 0 {
		attrs = append(attrs, slog.Int("worker", ev.Worker))
	}
	if spec.index != "" && ev.Index >= 0 {
		attrs = append(attrs, slog.Int(spec.index, ev.Index))
	}
	if spec.label != "" && ev.Label != FlightLabelNone {
		attrs = append(attrs, slog.String(spec.label, FlightLabelName(ev.Label)))
	}
	if spec.a != "" {
		attrs = append(attrs, slog.Int64(spec.a, ev.A))
	}
	if spec.b != "" {
		attrs = append(attrs, slog.Int64(spec.b, ev.B))
	}
	log.LogAttrs(ctx, level, spec.msg, attrs...)
}

// FaultWork is the engine traffic behind one finished fault: the merged
// fan-out cone its walk covered, and the growth of the engine's
// cumulative gate-walk, gate-evaluation and op-cache counters since the
// worker's previous fault.
type FaultWork struct {
	ConeGates                                   int64
	GatesVisited, GatesSkipped, GateEvaluations int64
	CacheHits, CacheMisses                      int64
}

// AddWork folds one fault's engine traffic into the heartbeat and the
// campaign metrics, live, so the timeline can follow the cone-skip and
// cache-hit ratios mid-campaign. Nil-safe.
func (c *Campaign) AddWork(w FaultWork) {
	if c == nil {
		return
	}
	c.gatesVisited.Add(w.GatesVisited)
	c.gatesSkipped.Add(w.GatesSkipped)
	if c.o.Metrics == nil {
		return
	}
	m := c.o.CampaignMetrics()
	m.ConeGates.Observe(float64(w.ConeGates))
	m.GatesVisited.Add(w.GatesVisited)
	m.GatesSkipped.Add(w.GatesSkipped)
	m.GateEvaluations.Add(w.GateEvaluations)
	m.CacheHits.Add(w.CacheHits)
	m.CacheMisses.Add(w.CacheMisses)
}
