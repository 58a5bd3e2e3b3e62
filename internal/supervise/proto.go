// Worker⇄supervisor wire protocol: versioned JSONL over the worker's
// stdout pipe, one Msg per line. The worker says hello once, heartbeats
// with its completed-fault count while analyzing, and reports done (or a
// fatal error) before exiting; everything else the supervisor learns from
// the process itself — exit status, a silent pipe, a closed pipe. The
// supervisor holds the worker's STDIN open for the worker's whole life:
// a worker that sees stdin EOF knows its supervisor is gone and must exit
// rather than run orphaned (the other half of the zero-orphans
// guarantee; the supervisor's half is killing workers on shutdown).
package supervise

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/chaos"
)

// ProtoVersion is the protocol schema version carried in every message.
// A supervisor refuses messages from a different version: a version skew
// means the worker binary is not the one the supervisor launched.
const ProtoVersion = 1

// Message types.
const (
	// MsgHello is the worker's first message (PID, shard echo, total).
	MsgHello = "hello"
	// MsgHeartbeat is the periodic liveness beacon (Done = completed
	// faults, including checkpoint-restored ones).
	MsgHeartbeat = "hb"
	// MsgDone announces the shard completed; the worker exits 0 next.
	// Completion requires BOTH this message and exit status 0 — an exit 0
	// without it (a wedged run whose heartbeats stalled, a stdout tear) is
	// treated as a death and the lease is re-dispatched.
	MsgDone = "done"
	// MsgError reports a fatal worker error before a non-zero exit.
	MsgError = "error"
)

// Msg is one protocol line.
type Msg struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Shard string `json:"shard,omitempty"` // "lo-hi", echoing the lease
	PID   int    `json:"pid,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Err   string `json:"err,omitempty"`
}

// ParseMsg decodes one protocol line, refusing unknown versions.
func ParseMsg(line []byte) (Msg, error) {
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return Msg{}, fmt.Errorf("supervise: bad protocol line %q: %w", line, err)
	}
	if m.V != ProtoVersion {
		return Msg{}, fmt.Errorf("supervise: protocol version %d, want %d (worker binary mismatch)", m.V, ProtoVersion)
	}
	return m, nil
}

// Reporter is the worker-side sender. All methods are safe for concurrent
// use (the heartbeat goroutine races the analysis goroutine's done/error)
// and nil-safe, so an unsupervised run can pass a nil Reporter around.
//
// A chaos hbstall injection latches the reporter silent: every later
// message — heartbeats AND the final done — is swallowed while the
// analysis keeps running, which is exactly the wedged-runtime shape the
// supervisor must catch by heartbeat timeout.
type Reporter struct {
	mu      sync.Mutex
	w       io.Writer
	shard   string
	stalled bool
	inj     *chaos.Injector
}

// NewReporter builds a reporter writing to w (the worker's stdout) for
// the lease covering global faults [lo, hi).
func NewReporter(w io.Writer, lo, hi int) *Reporter {
	return &Reporter{w: w, shard: fmt.Sprintf("%d-%d", lo, hi)}
}

// SetChaos arms the heartbeat-stall injection point (nil disarms).
func (r *Reporter) SetChaos(inj *chaos.Injector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.inj = inj
	r.mu.Unlock()
}

// send marshals and writes one line under the lock. The reporter is not
// poisoned by a write error — stdout dying means the supervisor is gone,
// and the stdin watchdog is about to exit the process anyway.
func (r *Reporter) send(m Msg) {
	if r == nil {
		return
	}
	m.V = ProtoVersion
	m.Shard = r.shard
	buf, err := json.Marshal(m)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stalled {
		return
	}
	r.w.Write(append(buf, '\n')) //nolint:errcheck // see above
}

// Hello announces the worker (pid, shard, fault total).
func (r *Reporter) Hello(pid, total int) {
	r.send(Msg{Type: MsgHello, PID: pid, Total: total})
}

// Heartbeat sends one liveness beacon carrying the completed-fault count.
// Each call consults the chaos hbstall point first; a firing latches the
// reporter silent from this beacon on.
func (r *Reporter) Heartbeat(done int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.stalled && r.inj.HeartbeatStall() {
		r.stalled = true
	}
	r.mu.Unlock()
	r.send(Msg{Type: MsgHeartbeat, Done: done})
}

// Done announces shard completion (the worker must exit 0 after).
func (r *Reporter) Done(done int) {
	r.send(Msg{Type: MsgDone, Done: done})
}

// Error reports a fatal worker failure (the worker exits non-zero after).
func (r *Reporter) Error(err error) {
	r.send(Msg{Type: MsgError, Err: err.Error()})
}

// WatchStdin starts the worker-side orphan watchdog: a goroutine draining
// r (the worker's stdin, a pipe the supervisor holds open and never
// writes to) that calls onOrphan when the pipe reaches EOF — i.e. when
// the supervisor died, even by SIGKILL, which runs no cleanup of its own.
// onOrphan must not return (os.Exit).
func WatchStdin(r io.Reader, onOrphan func()) {
	go func() {
		io.Copy(io.Discard, r) //nolint:errcheck // EOF and errors both mean: supervisor gone
		onOrphan()
	}()
}

// readMessages parses the worker's stdout into a message channel, closed
// when the pipe closes; r is closed once read to the end. Unparseable
// lines are delivered as an error via bad (worker prints, debug junk —
// the supervisor logs and ignores them; a version mismatch surfaces the
// same way).
func readMessages(r io.ReadCloser, bad func(error)) <-chan Msg {
	ch := make(chan Msg, 16)
	go func() {
		defer close(ch)
		defer r.Close()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			m, err := ParseMsg(sc.Bytes())
			if err != nil {
				if bad != nil {
					bad(err)
				}
				continue
			}
			ch <- m
		}
	}()
	return ch
}
