// Per-fault event tracing: one span per analyzed fault, streamed as JSONL
// or as Chrome trace_event JSON loadable in chrome://tracing (or
// https://ui.perfetto.dev). Spans carry the fault id, the worker that
// analyzed it, the outcome, and the phase breakdown (difference-function
// build, propagation, satisfying-set count) measured by the engine.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceFormat selects the tracer's wire format.
type TraceFormat int

const (
	// FormatJSONL emits one self-contained JSON object per line.
	FormatJSONL TraceFormat = iota
	// FormatChrome emits a Chrome trace_event JSON array for
	// chrome://tracing; workers map to thread lanes.
	FormatChrome
)

// ParseTraceFormat maps a -traceformat flag value to a TraceFormat.
func ParseTraceFormat(s string) (TraceFormat, error) {
	switch s {
	case "jsonl", "":
		return FormatJSONL, nil
	case "chrome":
		return FormatChrome, nil
	}
	return 0, fmt.Errorf("obs: unknown trace format %q (jsonl, chrome)", s)
}

// FaultSpan is one per-fault trace event.
type FaultSpan struct {
	// Index is the fault's campaign index; Fault its human-readable site
	// description; Worker the engine that analyzed it.
	Index  int
	Fault  string
	Worker int
	// Outcome is the fault's outcome label: "exact", "rescued",
	// "approximate" or "error".
	Outcome string
	// Start and Dur delimit the whole analysis; Build, Propagate and
	// SatCount break it into the engine's phases (zero when the engine
	// had phase timing off or the fault was degraded mid-phase).
	Start                      time.Time
	Dur                        time.Duration
	Build, Propagate, SatCount time.Duration
}

// jsonlEvent is the JSONL wire form of a FaultSpan.
type jsonlEvent struct {
	TSUS        int64  `json:"ts_us"` // µs since trace start
	DurUS       int64  `json:"dur_us"`
	Index       int    `json:"i"`
	Fault       string `json:"fault"`
	Worker      int    `json:"worker"`
	Outcome     string `json:"outcome"`
	BuildUS     int64  `json:"build_us"`
	PropagateUS int64  `json:"propagate_us"`
	SatCountUS  int64  `json:"satcount_us"`
}

// chromeEvent is the Chrome trace_event wire form ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TSUS int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Args map[string]any `json:"args"`
}

// Tracer streams FaultSpan events to a writer. Emit is safe for
// concurrent use by campaign workers; a nil *Tracer discards everything.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	format TraceFormat
	start  time.Time
	events int64
	opened bool // chrome array bracket written
	closed bool
}

// NewTracer builds a tracer over w. The caller owns w's lifetime but must
// call Close (before closing w) to finalize the stream — the Chrome
// format needs its closing bracket.
func NewTracer(w io.Writer, format TraceFormat) *Tracer {
	return &Tracer{w: w, format: format, start: time.Now()}
}

// Enabled reports whether events will be recorded (false on nil), letting
// callers skip span construction entirely when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Events reports how many spans have been emitted (zero on nil).
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Emit writes one span event. Safe on a nil receiver (no-op).
func (t *Tracer) Emit(s FaultSpan) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("obs: emit on closed tracer")
	}
	ts := s.Start.Sub(t.start).Microseconds()
	var payload []byte
	var err error
	switch t.format {
	case FormatChrome:
		payload, err = json.Marshal(chromeEvent{
			Name: s.Fault,
			Cat:  "fault",
			Ph:   "X",
			PID:  1,
			TID:  s.Worker,
			TSUS: ts,
			Dur:  s.Dur.Microseconds(),
			Args: map[string]any{
				"index":        s.Index,
				"outcome":      s.Outcome,
				"build_us":     s.Build.Microseconds(),
				"propagate_us": s.Propagate.Microseconds(),
				"satcount_us":  s.SatCount.Microseconds(),
			},
		})
	default:
		payload, err = json.Marshal(jsonlEvent{
			TSUS:        ts,
			DurUS:       s.Dur.Microseconds(),
			Index:       s.Index,
			Fault:       s.Fault,
			Worker:      s.Worker,
			Outcome:     s.Outcome,
			BuildUS:     s.Build.Microseconds(),
			PropagateUS: s.Propagate.Microseconds(),
			SatCountUS:  s.SatCount.Microseconds(),
		})
	}
	if err != nil {
		return err
	}
	if t.format == FormatChrome {
		sep := ",\n"
		if !t.opened {
			sep = "[\n"
			t.opened = true
		}
		if _, err := io.WriteString(t.w, sep); err != nil {
			return err
		}
		if _, err := t.w.Write(payload); err != nil {
			return err
		}
	} else {
		if _, err := t.w.Write(append(payload, '\n')); err != nil {
			return err
		}
	}
	t.events++
	return nil
}

// Close finalizes the stream (writes the Chrome array's closing bracket).
// Safe on a nil receiver; idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.format == FormatChrome {
		if !t.opened {
			_, err := io.WriteString(t.w, "[]\n")
			return err
		}
		_, err := io.WriteString(t.w, "\n]\n")
		return err
	}
	return nil
}
