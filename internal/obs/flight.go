// Flight recorder: a fixed-size ring buffer of structured campaign
// events — worker claims and drains, fault outcomes with op counts,
// GC passes, calibration bumps, chaos injections, checkpoint I/O,
// budget blows and supervisor events, all written by Emit — retained in
// memory for the whole run and dumped as JSON on panic, checkpoint
// poisoning, second SIGINT, or normal completion. The ring stores compact value
// structs (enum kinds, enum labels, two generic int64 payloads); JSON
// rendering happens only at dump time, so recording stays allocation-free
// and a nil *FlightRecorder is a no-op like every other obs handle.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// FlightKind enumerates the event types a flight recorder retains.
type FlightKind uint8

const (
	// FlightCampaignStart opens a campaign (a = total faults).
	FlightCampaignStart FlightKind = iota
	// FlightResume records checkpoint-restored faults (a = count).
	FlightResume
	// FlightWorkerStart marks one worker goroutine starting.
	FlightWorkerStart
	// FlightWorkerClaim records a work-stealing block claim (a = first
	// fault index of the block, b = block size).
	FlightWorkerClaim
	// FlightWorkerDrain marks a worker running out of work.
	FlightWorkerDrain
	// FlightFaultDone records one analyzed fault (label = outcome,
	// a = duration µs, b = charged BDD ops).
	FlightFaultDone
	// FlightBudgetBlow records a budget/node-limit abort inside the
	// recovery ladder (a = attempt 1 or 2, b = ops charged at abort).
	FlightBudgetBlow
	// FlightGC records a generational GC pass (a = nodes reclaimed,
	// b = live nodes after).
	FlightGC
	// FlightCalibration records a calibration publish (a = budget ops,
	// b = samples in the window).
	FlightCalibration
	// FlightChaos records a chaos injection (label = chaos point,
	// index = the fault index or sequence number that keyed it).
	FlightChaos
	// FlightCheckpointAppend records one persisted record (index = fault
	// index, a = bytes written).
	FlightCheckpointAppend
	// FlightCheckpointFsync records a checkpoint fsync (a = records
	// appended so far).
	FlightCheckpointFsync
	// FlightCheckpointError records checkpointer poisoning (label =
	// append or fsync, index = the fault index being persisted).
	FlightCheckpointError
	// FlightCampaignFinish seals a campaign (label = ok or canceled,
	// a = faults analyzed, b = faults skipped).
	FlightCampaignFinish
	// FlightSpawn records the supervisor launching a worker subprocess
	// (worker = shard slot, index = shard lo, a = shard size, b = restart
	// attempt).
	FlightSpawn
	// FlightWorkerDeath records a worker subprocess dying (label = exit,
	// stall or oom; worker = shard slot, index = shard lo, a = exit code
	// or -1, b = faults the shard had completed).
	FlightWorkerDeath
	// FlightRestart records the supervisor re-dispatching a dead worker's
	// lease (worker = shard slot, index = shard lo, a = restart attempt,
	// b = backoff µs).
	FlightRestart
	// FlightBisect records a repeatedly-fatal shard being split (index =
	// shard lo, a = shard size, b = split point as global index).
	FlightBisect
	// FlightQuarantine records a poison fault isolated as an Err record
	// (index = global fault index, a = deaths the fault caused).
	FlightQuarantine

	flightKindCount
)

var flightKindNames = [flightKindCount]string{
	FlightCampaignStart:    "campaign_start",
	FlightResume:           "resume",
	FlightWorkerStart:      "worker_start",
	FlightWorkerClaim:      "claim",
	FlightWorkerDrain:      "drain",
	FlightFaultDone:        "fault",
	FlightBudgetBlow:       "budget_blow",
	FlightGC:               "gc",
	FlightCalibration:      "calibration",
	FlightChaos:            "chaos",
	FlightCheckpointAppend: "ckpt_append",
	FlightCheckpointFsync:  "ckpt_fsync",
	FlightCheckpointError:  "ckpt_error",
	FlightCampaignFinish:   "campaign_finish",
	FlightSpawn:            "spawn",
	FlightWorkerDeath:      "worker_death",
	FlightRestart:          "restart",
	FlightBisect:           "bisect",
	FlightQuarantine:       "quarantine",
}

// String returns the kind's wire name as used in flight dumps.
func (k FlightKind) String() string {
	if k < flightKindCount {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flight labels qualify an event without allocating: outcome labels for
// fault events (also the outcome names of trace spans), chaos-point labels for injections, I/O-op labels for
// checkpoint errors. Label 0 renders as no label at all.
const (
	FlightLabelNone uint8 = iota
	FlightLabelExact
	FlightLabelApproximate
	FlightLabelRescued
	FlightLabelError
	FlightLabelBudget
	FlightLabelNodeLimit
	FlightLabelPanic
	FlightLabelLatency
	FlightLabelCkptWrite
	FlightLabelCkptSync
	FlightLabelAppend
	FlightLabelFsync
	FlightLabelOK
	FlightLabelCanceled
	FlightLabelExit
	FlightLabelStall
	FlightLabelOOM
	FlightLabelWorkerKill
	FlightLabelHeartbeatStall
	FlightLabelShardTear

	flightLabelCount
)

// The chaos-point labels intentionally spell exactly like
// chaos.Point.String() names, so FlightLabelByName(p.String()) maps an
// injector's point straight to its flight label.
var flightLabelNames = [flightLabelCount]string{
	FlightLabelNone:           "",
	FlightLabelExact:          "exact",
	FlightLabelApproximate:    "approximate",
	FlightLabelRescued:        "rescued",
	FlightLabelError:          "error",
	FlightLabelBudget:         "budget",
	FlightLabelNodeLimit:      "nodelimit",
	FlightLabelPanic:          "panic",
	FlightLabelLatency:        "latency",
	FlightLabelCkptWrite:      "ckptwrite",
	FlightLabelCkptSync:       "ckptsync",
	FlightLabelAppend:         "append",
	FlightLabelFsync:          "fsync",
	FlightLabelOK:             "ok",
	FlightLabelCanceled:       "canceled",
	FlightLabelExit:           "exit",
	FlightLabelStall:          "stall",
	FlightLabelOOM:            "oom",
	FlightLabelWorkerKill:     "workerkill",
	FlightLabelHeartbeatStall: "hbstall",
	FlightLabelShardTear:      "shardtear",
}

// FlightLabelName returns a label's wire name ("" for none/unknown).
func FlightLabelName(l uint8) string {
	if l < flightLabelCount {
		return flightLabelNames[l]
	}
	return ""
}

// FlightLabelByName resolves a wire name to its label (FlightLabelNone
// for "" or unknown names).
func FlightLabelByName(name string) uint8 {
	if name == "" {
		return FlightLabelNone
	}
	for l := uint8(1); l < flightLabelCount; l++ {
		if flightLabelNames[l] == name {
			return l
		}
	}
	return FlightLabelNone
}

// flightSlot is one ring entry — a value struct so the ring is a single
// allocation at construction and recording never allocates.
type flightSlot struct {
	seq    uint64
	tns    int64 // nanoseconds since recorder start
	kind   FlightKind
	label  uint8
	worker int32
	index  int32
	a, b   int64
}

// FlightRecorder is a mutex-guarded fixed ring of flight events. When the
// ring wraps, the oldest events are overwritten and counted as dropped —
// the dump reports both totals so consumers can tell a complete history
// from a truncated one. All methods are nil-safe.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []flightSlot
	next  uint64 // total events ever recorded; next slot = next % len(ring)
	start time.Time
}

// DefaultFlightEvents is the ring capacity used when NewFlightRecorder is
// given a non-positive one: at ~56 bytes a slot, under 1 MiB of history.
const DefaultFlightEvents = 16384

// NewFlightRecorder builds a recorder retaining the last capacity events
// (DefaultFlightEvents when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{ring: make([]flightSlot, capacity), start: time.Now()}
}

// Record appends one event to the ring. Safe on a nil receiver (no-op)
// and for concurrent use; never allocates.
func (r *FlightRecorder) Record(kind FlightKind, label uint8, worker, index int, a, b int64) {
	if r == nil {
		return
	}
	t := time.Since(r.start)
	r.mu.Lock()
	s := &r.ring[r.next%uint64(len(r.ring))]
	s.seq = r.next
	s.tns = int64(t)
	s.kind = kind
	s.label = label
	s.worker = int32(worker)
	s.index = int32(index)
	s.a = a
	s.b = b
	r.next++
	r.mu.Unlock()
}

// Total reports how many events were ever recorded and how many of them
// the ring has already overwritten (zero on a nil receiver).
func (r *FlightRecorder) Total() (total, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	total = r.next
	if n := uint64(len(r.ring)); total > n {
		dropped = total - n
	}
	return total, dropped
}

// FlightEvent is the JSON wire form of one recorded event.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	TUS    int64  `json:"t_us"`
	Kind   string `json:"kind"`
	Worker int    `json:"worker"`
	Index  int    `json:"i"`
	Label  string `json:"label,omitempty"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// Snapshot renders the retained events oldest-first (nil on a nil
// receiver). This is the only place flight data allocates.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	lo := uint64(0)
	if r.next > n {
		lo = r.next - n
	}
	out := make([]FlightEvent, 0, r.next-lo)
	for seq := lo; seq < r.next; seq++ {
		s := &r.ring[seq%n]
		out = append(out, FlightEvent{
			Seq:    s.seq,
			TUS:    s.tns / 1e3,
			Kind:   s.kind.String(),
			Worker: int(s.worker),
			Index:  int(s.index),
			Label:  FlightLabelName(s.label),
			A:      s.a,
			B:      s.b,
		})
	}
	return out
}

// FlightDumpVersion is the schema version written into flight dumps.
const FlightDumpVersion = 1

// FlightDump is the JSON document written to the flight file: the event
// history plus the timeline samples, the fault-latency histogram, and the
// final campaign heartbeats taken at dump time.
type FlightDump struct {
	Version       int    `json:"version"`
	Program       string `json:"program"`
	Reason        string `json:"reason"`
	StartUnixMS   int64  `json:"start_unix_ms"`
	DumpUnixMS    int64  `json:"dump_unix_ms"`
	EventsTotal   uint64 `json:"events_total"`
	EventsDropped uint64 `json:"events_dropped"`

	Events       []FlightEvent      `json:"events"`
	Timeline     []TimelineSample   `json:"timeline,omitempty"`
	FaultLatency *HistogramSnapshot `json:"fault_latency,omitempty"`
	// ConeGates is the per-fault merged fan-out-cone-size distribution
	// (the post-mortem scheduling section's raw material).
	ConeGates *HistogramSnapshot `json:"cone_gates,omitempty"`
	Campaigns []CampaignSnapshot `json:"campaigns,omitempty"`
}

// BuildFlightDump assembles a dump document from the observer's flight
// recorder, timeline and heartbeats. Returns nil when the observer or its
// flight recorder is nil.
func (o *Observer) BuildFlightDump(program, reason string) *FlightDump {
	if o == nil || o.Flight == nil {
		return nil
	}
	total, dropped := o.Flight.Total()
	d := &FlightDump{
		Version:       FlightDumpVersion,
		Program:       program,
		Reason:        reason,
		StartUnixMS:   o.Flight.start.UnixMilli(),
		DumpUnixMS:    time.Now().UnixMilli(),
		EventsTotal:   total,
		EventsDropped: dropped,
		Events:        o.Flight.Snapshot(),
	}
	if tl := o.Timeline(); tl != nil {
		d.Timeline = tl.Snapshot()
	}
	if o.Metrics != nil {
		if h := o.CampaignMetrics().FaultLatency; h.Count() > 0 {
			s := h.Snapshot()
			d.FaultLatency = &s
		}
		if h := o.CampaignMetrics().ConeGates; h.Count() > 0 {
			s := h.Snapshot()
			d.ConeGates = &s
		}
	}
	if cs := o.Progress().Campaigns; len(cs) > 0 {
		d.Campaigns = cs
	}
	return d
}

// WriteFlightDump writes the dump JSON to path. Returns (false, nil) when
// there is nothing to dump (nil observer or no flight recorder), so
// callers can report only dumps that actually happened.
func (o *Observer) WriteFlightDump(path, program, reason string) (bool, error) {
	d := o.BuildFlightDump(program, reason)
	if d == nil {
		return false, nil
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return false, err
	}
	return true, nil
}

// ReadFlightDump parses a flight dump file (the post-mortem analyzer's
// ingest path).
func ReadFlightDump(path string) (*FlightDump, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("flight dump %s: %w", path, err)
	}
	if d.Version != FlightDumpVersion {
		return nil, fmt.Errorf("flight dump %s: unsupported version %d (want %d)", path, d.Version, FlightDumpVersion)
	}
	return &d, nil
}
