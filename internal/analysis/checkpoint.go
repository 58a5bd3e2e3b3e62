// Campaign checkpointing: crash-safe JSONL persistence of finished fault
// records, and resume support that refuses mismatched fault sets.
//
// File format: the first line is a CheckpointHeader (schema version plus a
// fingerprint of the circuit and the exact fault set); every following
// line is one {"i":<fault index>,"r":<record>} pair, appended the moment
// the fault finishes. The work-stealing scheduler makes record order
// irrelevant — each line is self-identifying — so a resumed campaign only
// needs the set of persisted indices, not their sequence. Appends are
// single write(2) calls with a periodic fsync, and loading tolerates a
// torn final line (a crash mid-append), which the resuming writer then
// truncates away before continuing.
package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// CheckpointError is the typed error a campaign aborts with when
// persisting a finished record fails: a failed or short write(2), a
// failed fsync, or an injected chaos failure. The campaign still returns
// its partial index-aligned study — every record analyzed before the
// failure is present, unreached ones are marked Skipped — so callers can
// distinguish "disk died" (inspect with errors.As) from a bad result set.
type CheckpointError struct {
	// Op is the failed operation: "append" or "fsync".
	Op string
	// Index is the fault index being persisted (-1 when the failure is
	// not tied to one record).
	Index int
	// Err is the underlying I/O (or injected) error.
	Err error
}

func (e *CheckpointError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("analysis: checkpoint %s of fault %d failed: %v (campaign aborted with partial results)", e.Op, e.Index, e.Err)
	}
	return fmt.Sprintf("analysis: checkpoint %s failed: %v (campaign aborted with partial results)", e.Op, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

// RecordIndexError is the typed error LoadCheckpoint returns when a fully
// decoded record line carries a fault index outside the header's declared
// fault count. Unlike a torn tail (a crash artifact, tolerated), an
// out-of-range index on an intact line means the file is corrupt or was
// written for a different fault set: admitting it into the record map
// would either be silently dropped or clobber a legitimate record on
// resume.
type RecordIndexError struct {
	// Path is the checkpoint file.
	Path string
	// Index is the offending record index.
	Index int
	// Faults is the header's fault count (valid indices are [0, Faults)).
	Faults int
}

func (e *RecordIndexError) Error() string {
	return fmt.Sprintf("analysis: checkpoint %s: record index %d outside the header's %d faults (corrupt file or wrong fault set)", e.Path, e.Index, e.Faults)
}

// CheckpointVersion is the schema version written to (and required from)
// checkpoint headers.
const CheckpointVersion = 1

// DefaultFsyncEvery is the default append-to-fsync cadence.
const DefaultFsyncEvery = 32

// CheckpointHeader identifies what a checkpoint file holds: the schema
// version, the fault model, and a fingerprint binding it to one circuit
// and one exact fault set. Resume refuses any mismatch — record indices
// are only meaningful against the fault set they were computed from.
type CheckpointHeader struct {
	Version     int    `json:"version"`
	Kind        string `json:"kind"` // "stuckat" or "bridging"
	Circuit     string `json:"circuit"`
	Faults      int    `json:"faults"`
	Fingerprint string `json:"fingerprint"`
	// Shard marks a per-shard checkpoint written by a supervised worker:
	// "lo-hi" names the global fault range [lo, hi) whose faults this file
	// holds under LOCAL indices 0..hi-lo-1 (Faults and Fingerprint then
	// cover the shard's subset, not the whole campaign). Empty for
	// whole-campaign checkpoints; resume refuses a shard/whole mismatch
	// like any other header disagreement.
	Shard string `json:"shard,omitempty"`
}

// WithShard marks the header as covering the global fault range [lo, hi)
// of a sharded campaign. The header must already have been built over
// exactly that subset of the fault set (its count and fingerprint stay
// untouched).
func (h CheckpointHeader) WithShard(lo, hi int) CheckpointHeader {
	h.Shard = fmt.Sprintf("%d-%d", lo, hi)
	return h
}

// StuckAtCheckpointHeader builds the header for a stuck-at campaign over
// the working circuit c and fault set fs (in campaign index order).
func StuckAtCheckpointHeader(c *netlist.Circuit, fs []faults.StuckAt) CheckpointHeader {
	return checkpointHeader(stuckAtModel, c, fs)
}

// BridgingCheckpointHeader builds the header for a bridging campaign.
func BridgingCheckpointHeader(c *netlist.Circuit, bs []faults.Bridging) CheckpointHeader {
	return checkpointHeader(bridgingModel, c, bs)
}

func checkpointHeader[F, R any](m faultModel[F, R], c *netlist.Circuit, fs []F) CheckpointHeader {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d\n", m.kind, c.Name, c.NumNets(), len(fs))
	for _, f := range fs {
		m.fingerprint(h, f)
	}
	return CheckpointHeader{
		Version:     CheckpointVersion,
		Kind:        m.kind,
		Circuit:     c.Name,
		Faults:      len(fs),
		Fingerprint: hex.EncodeToString(h.Sum(nil)[:16]),
	}
}

// checkpointLine is one persisted record: the fault's campaign index and
// the marshaled record.
type checkpointLine struct {
	Index  int             `json:"i"`
	Record json.RawMessage `json:"r"`
}

// Checkpointer appends finished fault records to a JSONL checkpoint file.
// Append is safe for concurrent use by the campaign workers; each record
// becomes exactly one write(2) call, so a crash can tear at most the final
// line, which LoadCheckpoint tolerates.
type Checkpointer struct {
	// FsyncEvery is the number of appends between fsync calls (set before
	// the campaign starts; DefaultFsyncEvery when constructed by this
	// package, 0 disables periodic fsync — Close still syncs).
	FsyncEvery int

	mu       sync.Mutex
	observer *obs.Observer // append, fsync and poisoning events (Instrument); nil = off
	f        *os.File
	dir      string // parent directory, fsynced on create and Close
	appended int

	// err poisons the checkpointer after the first write/fsync failure:
	// a failed append may have left a torn line, and only the FINAL line
	// of a checkpoint may be torn (LoadCheckpoint's crash-tolerance
	// contract), so appending anything after a failure would corrupt the
	// file. Every later Append returns the original error.
	err *CheckpointError

	// inj, when non-nil, lets the chaos harness fail or tear individual
	// writes and fsyncs (SetChaos).
	inj *chaos.Injector
}

// SetChaos attaches a chaos injector whose ckptwrite/ckptsync rules fail
// individual appends and fsyncs. Wired by the campaign runners before
// workers start; nil detaches.
func (cp *Checkpointer) SetChaos(inj *chaos.Injector) {
	cp.mu.Lock()
	cp.inj = inj
	cp.mu.Unlock()
}

// Err returns the persistence failure that poisoned the checkpointer, or
// nil while it is healthy.
func (cp *Checkpointer) Err() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.err == nil {
		return nil
	}
	return cp.err
}

// Instrument sends the checkpointer's append, fsync and poisoning events
// to o (nil detaches). Wired by the campaign runners before workers start.
func (cp *Checkpointer) Instrument(o *obs.Observer) {
	cp.mu.Lock()
	cp.observer = o
	cp.mu.Unlock()
}

// syncDir fsyncs a directory so the directory entries themselves — a
// freshly created checkpoint's name, its final length — survive a crash
// plus power loss, not just the file's own data blocks. Filesystems
// without directory fsync (it is Linux/POSIX behavior) surface EINVAL or
// ENOTSUP here; that is reported, not ignored, since the caller asked for
// the durability guarantee.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateCheckpoint starts a fresh checkpoint file (truncating any existing
// one), persists the header immediately, and fsyncs the parent directory
// so the file's very existence survives a crash — without the directory
// sync, a power cut after f.Sync can still lose the name and with it
// every record the campaign goes on to append.
func CreateCheckpoint(path string, hdr CheckpointHeader) (*Checkpointer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("analysis: create checkpoint: %w", err)
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("analysis: marshal checkpoint header: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("analysis: write checkpoint header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("analysis: sync checkpoint header: %w", err)
	}
	dir := filepath.Dir(path)
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("analysis: sync checkpoint directory: %w", err)
	}
	return &Checkpointer{f: f, dir: dir, FsyncEvery: DefaultFsyncEvery}, nil
}

// Append persists one finished record under its fault index. The first
// write or fsync failure — including a short write, which leaves a torn
// final line exactly like a crash — poisons the checkpointer: the typed
// *CheckpointError is returned now and from every later Append, so the
// campaign aborts cleanly with partial index-aligned results instead of
// silently dropping records or corrupting the file past the tear.
func (cp *Checkpointer) Append(index int, record any) error {
	raw, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("analysis: marshal checkpoint record %d: %w", index, err)
	}
	line, err := json.Marshal(checkpointLine{Index: index, Record: raw})
	if err != nil {
		return fmt.Errorf("analysis: marshal checkpoint line %d: %w", index, err)
	}
	buf := append(line, '\n')
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.err != nil {
		return cp.err
	}
	if cp.inj != nil {
		if keep, cerr := cp.inj.CheckpointWrite(); cerr != nil {
			if keep > len(buf) {
				keep = len(buf)
			}
			if keep > 0 {
				// A torn write: part of the line reaches the disk before the
				// failure, as a real crash or ENOSPC mid-write would leave it.
				cp.f.Write(buf[:keep]) //nolint:errcheck // best-effort tear
			}
			return cp.poison("append", index, cerr)
		}
	}
	n, werr := cp.f.Write(buf)
	if werr == nil && n < len(buf) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		return cp.poison("append", index, werr)
	}
	cp.appended++
	cp.observer.Emit(obs.Event{Kind: obs.FlightCheckpointAppend, Worker: -1, Index: index, A: int64(len(buf))})
	if cp.FsyncEvery > 0 && cp.appended%cp.FsyncEvery == 0 {
		if err := cp.sync(); err != nil {
			return cp.poison("fsync", index, err)
		}
	}
	return nil
}

// sync runs one fsync (under mu), consulting the chaos injector first.
func (cp *Checkpointer) sync() error {
	if cp.inj != nil {
		if err := cp.inj.CheckpointSync(); err != nil {
			return err
		}
	}
	if err := cp.f.Sync(); err != nil {
		return err
	}
	cp.observer.Emit(obs.Event{Kind: obs.FlightCheckpointFsync, Worker: -1, Index: -1, A: int64(cp.appended)})
	return nil
}

// poison records the first persistence failure (under mu) and returns it.
func (cp *Checkpointer) poison(op string, index int, err error) *CheckpointError {
	cp.err = &CheckpointError{Op: op, Index: index, Err: err}
	label := obs.FlightLabelAppend
	if op == "fsync" {
		label = obs.FlightLabelFsync
	}
	cp.observer.Emit(obs.Event{Kind: obs.FlightCheckpointError, Label: label, Worker: -1, Index: index})
	return cp.err
}

// TearTail appends n unterminated garbage bytes to the checkpoint file —
// the prefix of a record line that a crash interrupted mid-write — and
// flushes them to disk, bypassing the Append poisoning machinery. This is
// the chaos harness's shardtear seam (Config.Tear): the writer is about
// to be SIGKILLed, so the tear must actually reach the disk for the
// resuming worker's torn-tail truncation to have something to truncate.
// Nil-safe and a no-op on a closed checkpointer or n <= 0.
func (cp *Checkpointer) TearTail(n int) {
	if cp == nil || n <= 0 {
		return
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil {
		return
	}
	buf := make([]byte, n)
	copy(buf, `{"i":`)
	for i := len(`{"i":`); i < n; i++ {
		buf[i] = '9'
	}
	cp.f.Write(buf) //nolint:errcheck // best-effort: the process dies next
	cp.f.Sync()     //nolint:errcheck
}

// Close syncs and closes the checkpoint file, then fsyncs its parent
// directory so the finished file's directory entry is as durable as its
// contents. A poisoned checkpointer skips the syncs (the failure was
// already surfaced by Append; the file keeps its valid prefix plus at
// most one torn final line, which resume truncates) and closes without
// reporting a second error.
func (cp *Checkpointer) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil {
		return nil
	}
	f := cp.f
	if cp.err != nil {
		cp.f = nil
		f.Close()
		return nil
	}
	if err := cp.sync(); err != nil {
		cp.f = nil
		f.Close()
		return cp.poison("fsync", -1, err)
	}
	cp.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("analysis: close checkpoint: %w", err)
	}
	if cp.dir != "" {
		if err := syncDir(cp.dir); err != nil {
			return fmt.Errorf("analysis: sync checkpoint directory: %w", err)
		}
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file: its header, the persisted
// records by fault index (when an index appears twice the later line
// wins), and the byte offset where valid content ends. A torn final line
// — no trailing newline, or undecodable JSON from a crash mid-append — is
// tolerated: loading stops there and validEnd excludes it. An intact line
// whose index falls outside the header's fault count is NOT tolerated:
// that is corruption, not a crash artifact, and loading fails with a
// *RecordIndexError instead of silently admitting the record.
func LoadCheckpoint(path string) (hdr CheckpointHeader, records map[int]json.RawMessage, validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointHeader{}, nil, 0, fmt.Errorf("analysis: read checkpoint: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return CheckpointHeader{}, nil, 0, fmt.Errorf("analysis: checkpoint %s: missing header line", path)
	}
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return CheckpointHeader{}, nil, 0, fmt.Errorf("analysis: checkpoint %s: bad header: %w", path, err)
	}
	records = make(map[int]json.RawMessage)
	validEnd = int64(nl + 1)
	rest := data[nl+1:]
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: line never finished
		}
		var line checkpointLine
		if err := json.Unmarshal(rest[:nl], &line); err != nil {
			break // torn tail: overwritten or truncated mid-write
		}
		if line.Index < 0 || line.Index >= hdr.Faults {
			return CheckpointHeader{}, nil, 0, &RecordIndexError{Path: path, Index: line.Index, Faults: hdr.Faults}
		}
		records[line.Index] = line.Record
		validEnd += int64(nl + 1)
		rest = rest[nl+1:]
	}
	return hdr, records, validEnd, nil
}

// ResumeCheckpoint opens a checkpoint for continuation. A missing file
// starts a fresh checkpoint with no restored records. An existing file is
// validated against the expected header — version, fault model, circuit,
// fault count and fault-set fingerprint must all match, otherwise resume
// is refused with an error saying which field disagrees — then truncated
// past any torn tail and reopened for appending. The returned records map
// feeds CampaignConfig.Resume.
func ResumeCheckpoint(path string, want CheckpointHeader) (*Checkpointer, map[int]json.RawMessage, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		cp, err := CreateCheckpoint(path, want)
		return cp, nil, err
	}
	hdr, records, validEnd, err := LoadCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case hdr.Version != want.Version:
		err = fmt.Errorf("schema version %d, want %d", hdr.Version, want.Version)
	case hdr.Kind != want.Kind:
		err = fmt.Errorf("fault model %q, want %q", hdr.Kind, want.Kind)
	case hdr.Circuit != want.Circuit:
		err = fmt.Errorf("circuit %q, want %q", hdr.Circuit, want.Circuit)
	case hdr.Faults != want.Faults:
		err = fmt.Errorf("%d faults, want %d", hdr.Faults, want.Faults)
	case hdr.Fingerprint != want.Fingerprint:
		err = fmt.Errorf("fault-set fingerprint %s, want %s (same size but different faults)", hdr.Fingerprint, want.Fingerprint)
	case hdr.Shard != want.Shard:
		err = fmt.Errorf("shard range %q, want %q", hdr.Shard, want.Shard)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: cannot resume %s: checkpoint has %v; it was written for a different fault set", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: reopen checkpoint: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("analysis: truncate torn checkpoint tail: %w", err)
	}
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("analysis: seek checkpoint: %w", err)
	}
	return &Checkpointer{f: f, dir: filepath.Dir(path), FsyncEvery: DefaultFsyncEvery}, records, nil
}

// DropDegradedRecords removes non-exact records — Approximate (budget
// blown, simulation estimate), Err (panic isolated) and Skipped (campaign
// cancelled) — from a loaded checkpoint's record map, so a resumed run
// re-attempts those faults instead of carrying the degraded results
// forward (the -retry-degraded flag). The map is mutated in place; the
// checkpoint file itself is untouched — re-analyzed faults append fresh
// lines and the later line wins on reload, keeping the fingerprint and
// format fully compatible. Returns how many records were dropped.
func DropDegradedRecords(records map[int]json.RawMessage) (dropped int, err error) {
	for i, raw := range records {
		var marker struct {
			Approximate bool
			Err         string
			Skipped     bool
		}
		if err := json.Unmarshal(raw, &marker); err != nil {
			return dropped, fmt.Errorf("analysis: checkpoint record %d: %w", i, err)
		}
		if marker.Approximate || marker.Err != "" || marker.Skipped {
			delete(records, i)
			dropped++
		}
	}
	return dropped, nil
}
