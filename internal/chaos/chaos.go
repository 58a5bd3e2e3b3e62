// Package chaos is a deterministic, seeded fault-injection harness for
// campaign robustness testing.
//
// The campaign stack promises strong invariants — no lost or duplicated
// fault records, rescued records bit-identical to clean runs, checkpoint
// resume bit-identical after a crash — but in normal operation the paths
// that uphold them (budget aborts, the recovery ladder, panic isolation,
// torn-tail truncation) only fire when a circuit happens to blow up. This
// package lets tests and CI force those paths on demand, reproducibly:
// every injection decision is a pure function of a user-chosen seed and
// the injection site, so a failing storm can be replayed from its seed
// alone.
//
// A Config names which injection points fire and how (scripted indices or
// a seeded per-index probability); New compiles it into an Injector that
// the analysis layer consults at each seam. A nil Injector is fully
// inert: every method short-circuits on the nil receiver without
// allocating, so the per-fault hot path of a chaos-free campaign is
// untouched.
//
// Injection points fall in two groups with different determinism
// strength. Fault-keyed points (budget, nodelimit, panic, latency) are
// decided by hashing (seed, point, fault index) — the decision is
// independent of worker count, scheduling and time, so the same seed
// injects at the same faults in every run. Sequence-keyed points
// (ckptwrite, ckptsync, hbstall) are keyed by an atomic per-point
// evaluation counter; WHICH append or tick a probabilistic rule hits
// depends on goroutine interleaving, so scripted Indices (or
// Count-capped always-fire rules) are the reproducible way to use them.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// Point names one injection site in the campaign stack.
type Point uint8

const (
	// PointBudget forces a bdd.ErrBudget abort at the AtOp-th charged BDD
	// operation of the selected fault's analysis (first attempt only; the
	// recovery ladder's retry runs clean, which is what makes rescued
	// records bit-identical to an uninjected run).
	PointBudget Point = iota
	// PointNodeLimit forces a bdd.ErrNodeLimit abort the same way.
	PointNodeLimit
	// PointPanic raises a worker panic inside the selected fault's
	// analysis (inside the per-fault recover scope, so the campaign
	// records a per-fault error instead of dying).
	PointPanic
	// PointLatency sleeps for Rule.Latency before the selected fault's
	// analysis, simulating slow faults without burning CPU.
	PointLatency
	// PointCheckpointWrite fails a checkpoint Append: the line is
	// truncated to Rule.Bytes bytes (0 = nothing written, a clean ENOSPC;
	// > 0 = a torn line, as left by a crash mid-write) and the append
	// reports an error wrapping syscall.ENOSPC.
	PointCheckpointWrite
	// PointCheckpointSync fails a checkpoint fsync.
	PointCheckpointSync
	// A retired point (memsample, which faked heap samples) keeps its
	// slot: hash01 mixes in each point's value, so renumbering would
	// change which keys a seeded spec fires on.
	_
	// PointWorkerKill SIGKILLs the worker process the moment the selected
	// fault's analysis arrives — the supervision harness's storm point. A
	// SIGKILL cannot be caught, so this is a true abrupt death: no defers,
	// no checkpoint flush beyond what already hit the disk. Process-level
	// points are fault-keyed by the shard-global index (Config.KeyOffset)
	// and, unless Rule.Repeat is set, fire only on a worker's first attempt
	// (Config.Attempt == 0) so restarted workers converge; Repeat makes the
	// kill recur on every restart — the poison-fault scenario the
	// supervisor answers with bisection and quarantine.
	PointWorkerKill
	// PointHeartbeatStall silences the worker's supervision heartbeats from
	// the selected tick on while the analysis keeps running — simulating a
	// wedged runtime the supervisor must detect by timeout and kill.
	// Sequence-keyed by heartbeat tick; attempt-gated like PointWorkerKill.
	PointHeartbeatStall
	// PointShardTear appends a torn partial line to the shard checkpoint
	// (via the Config.Tear seam; Rule.Bytes bytes, default 16) and then
	// SIGKILLs the worker — a crash mid-append, exercising the resuming
	// worker's torn-tail truncation. Fault-keyed and attempt-gated like
	// PointWorkerKill.
	PointShardTear

	numPoints
)

var pointNames = [numPoints]string{
	PointBudget:          "budget",
	PointNodeLimit:       "nodelimit",
	PointPanic:           "panic",
	PointLatency:         "latency",
	PointCheckpointWrite: "ckptwrite",
	PointCheckpointSync:  "ckptsync",
	PointWorkerKill:      "workerkill",
	PointHeartbeatStall:  "hbstall",
	PointShardTear:       "shardtear",
}

// processPoint reports whether p is a process-level supervision point —
// the group that is attempt-gated (fires on a worker's first attempt only
// unless Rule.Repeat is set).
func processPoint(p Point) bool {
	return p == PointWorkerKill || p == PointHeartbeatStall || p == PointShardTear
}

// String returns the point's spec-grammar name.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// PointByName resolves a spec-grammar name to its Point.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n != "" && n == name {
			return Point(p), true
		}
	}
	return 0, false
}

// Sentinel errors carried by injected failures. ErrInjected is wrapped by
// every injection-specific error, so errors.Is(err, chaos.ErrInjected)
// identifies any chaos-made failure.
var (
	ErrInjected = errors.New("chaos: injected failure")
	// ErrInjectedPanic is the value raised by worker-panic injections.
	ErrInjectedPanic = fmt.Errorf("injected worker panic: %w", ErrInjected)
	// ErrDiskFull is reported by checkpoint write/fsync injections; it
	// wraps syscall.ENOSPC so callers testing for a real full disk match.
	ErrDiskFull = fmt.Errorf("injected checkpoint I/O failure: %w (%w)", syscall.ENOSPC, ErrInjected)
)

// Rule selects when one injection point fires. Exactly one of Indices and
// Prob should be set; a rule with neither fires on every evaluation
// (useful with Count to fail "the first N"). All selections are further
// capped by Count when positive.
type Rule struct {
	// Point is the injection site this rule arms.
	Point Point
	// Indices fires at exactly these keys: fault indices for fault-keyed
	// points, 0-based evaluation sequence numbers for sequence-keyed ones.
	Indices []int
	// Prob fires with this probability per key, decided by hashing
	// (Config.Seed, Point, key) — reproducible for fault-keyed points.
	Prob float64
	// Count caps the total number of firings (0 = unlimited). The cap is
	// taken in evaluation order, so with concurrent workers WHICH keys
	// consume it is schedule-dependent.
	Count int64
	// AtOp is the charged-operation count at which budget/nodelimit
	// aborts fire within the fault's analysis. The default 1 (abort on
	// the first charged operation) is the only schedule-independent
	// choice: later charge counts depend on how warm the shared computed
	// cache happens to be.
	AtOp int64
	// Latency is the injected sleep for PointLatency.
	Latency time.Duration
	// Bytes is how much of the checkpoint line a PointCheckpointWrite
	// failure lets through: 0 fails before writing (clean ENOSPC), a
	// positive value leaves a torn line of that many bytes.
	Bytes int
	// Repeat lets a process-level point (workerkill, hbstall, shardtear)
	// fire on every worker restart attempt instead of only the first —
	// the poison-fault scenario. Ignored by every other point.
	Repeat bool
}

// Config activates the harness: a seed (the replay key) plus the armed
// rules. The zero Config — and a nil *Config — injects nothing.
type Config struct {
	Seed  int64
	Rules []Rule

	// KeyOffset shifts every fault-keyed decision by this amount: a shard
	// worker analyzing global faults [lo, hi) as local indices [0, hi-lo)
	// sets KeyOffset = lo, so a spec injects at the same global faults
	// whether the campaign runs sharded or in one process. Zero (the
	// default) leaves local indices as the keys.
	KeyOffset int
	// Attempt is the worker's restart attempt (0 = first launch). Rules on
	// process-level points without Repeat only fire at attempt 0, so a
	// restarted worker converges instead of dying at the same fault again.
	Attempt int
	// Tear is the shard-checkpoint tear seam consulted by PointShardTear:
	// it must append the given number of unterminated garbage bytes to the
	// checkpoint file (shard workers wire it to Checkpointer.TearTail).
	// A firing shardtear rule with a nil Tear only kills.
	Tear func(bytes int)
	// Kill overrides the process self-destruct used by PointWorkerKill and
	// PointShardTear; nil selects the real thing, SIGKILL to the own
	// process. Tests substitute a recording stub.
	Kill func()
}

// compiledRule is a Rule plus its runtime state.
type compiledRule struct {
	Rule
	indices map[int]bool // non-nil iff Indices was set
	taken   atomic.Int64 // firings consumed against Count
}

// match decides whether the rule selects key, ignoring the Count cap.
func (r *compiledRule) match(seed int64, key int) bool {
	if r.indices != nil {
		return r.indices[key]
	}
	if r.Prob > 0 {
		return hash01(seed, r.Point, key) < r.Prob
	}
	return true
}

// take consumes one firing against the Count cap.
func (r *compiledRule) take() bool {
	if r.Count <= 0 {
		return true
	}
	for {
		n := r.taken.Load()
		if n >= r.Count {
			return false
		}
		if r.taken.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Injector is a compiled Config. All methods are safe for concurrent use
// and inert on a nil receiver.
type Injector struct {
	seed    int64
	offset  int // added to every fault-keyed decision key
	attempt int // worker restart attempt gating process-level points
	rules   [numPoints][]*compiledRule
	tear    func(bytes int)
	kill    func()
	hook    func(p Point, key int) // observer for every firing (the event stream's seam); nil = off
	fired   atomic.Int64
	seq     [numPoints]atomic.Int64 // per-point evaluation counters (sequence-keyed points)
}

// killSelf is the real process self-destruct: SIGKILL, uncatchable, no
// defers — exactly what the Linux OOM killer or an operator's kill -9
// delivers.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // the process is gone either way
	// SIGKILL delivery can lag the syscall return by a scheduler tick;
	// block rather than let the analysis continue past its own death.
	select {}
}

// New compiles a Config. A nil config (or one with no rules) yields a nil
// Injector, whose every method is a no-op.
func New(cfg *Config) *Injector {
	if cfg == nil || len(cfg.Rules) == 0 {
		return nil
	}
	in := &Injector{seed: cfg.Seed, offset: cfg.KeyOffset, attempt: cfg.Attempt, tear: cfg.Tear, kill: cfg.Kill}
	if in.kill == nil {
		in.kill = killSelf
	}
	for i := range cfg.Rules {
		r := &compiledRule{Rule: cfg.Rules[i]}
		if r.Point >= numPoints {
			continue
		}
		if len(r.Indices) > 0 {
			r.indices = make(map[int]bool, len(r.Indices))
			for _, idx := range r.Indices {
				r.indices[idx] = true
			}
		}
		if r.AtOp <= 0 {
			r.AtOp = 1
		}
		if r.Point == PointShardTear && r.Bytes <= 0 {
			r.Bytes = 16
		}
		in.rules[r.Point] = append(in.rules[r.Point], r)
	}
	return in
}

// SetEventHook registers an observer called for every firing with its
// point and key (the event-stream seam: the campaign emits each firing as
// a chaos event, which is logged and becomes the audit trail a
// post-mortem correlates injections against). The hook runs on the firing goroutine;
// it must be cheap and must not inject. Set before the campaign starts; a
// nil hook disables it (the default).
func (in *Injector) SetEventHook(hook func(p Point, key int)) {
	if in == nil {
		return
	}
	in.hook = hook
}

// Injected reports how many injections have fired so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.fired.Load()
}

// Has reports whether any rule arms the point (false on nil).
func (in *Injector) Has(p Point) bool {
	return in != nil && p < numPoints && len(in.rules[p]) > 0
}

// fires evaluates the point's rules against key and returns the first
// that fires, recording the firing.
func (in *Injector) fires(p Point, key int) *compiledRule {
	if in == nil {
		return nil
	}
	for _, r := range in.rules[p] {
		// Process-level points without Repeat arm only a worker's first
		// attempt: a restarted worker must converge, not die again.
		if processPoint(p) && in.attempt != 0 && !r.Repeat {
			continue
		}
		if r.match(in.seed, key) && r.take() {
			in.fired.Add(1)
			if in.hook != nil {
				in.hook(p, key)
			}
			return r
		}
	}
	return nil
}

// next consumes one evaluation of a sequence-keyed point.
func (in *Injector) next(p Point) int {
	return int(in.seq[p].Add(1) - 1)
}

// key maps a local fault index to its decision key: the shard-global
// index when Config.KeyOffset is set, i itself otherwise. All fault-keyed
// points go through this, so one spec selects the same global faults
// whether the campaign runs sharded or in a single process.
func (in *Injector) key(i int) int {
	return i + in.offset
}

// BudgetAbort reports whether fault i's analysis should be aborted with a
// forced bdd.ErrBudget, and at which charged operation.
func (in *Injector) BudgetAbort(i int) (atOp int64, ok bool) {
	if in == nil {
		return 0, false
	}
	if r := in.fires(PointBudget, in.key(i)); r != nil {
		return r.AtOp, true
	}
	return 0, false
}

// NodeLimitAbort is BudgetAbort for forced bdd.ErrNodeLimit.
func (in *Injector) NodeLimitAbort(i int) (atOp int64, ok bool) {
	if in == nil {
		return 0, false
	}
	if r := in.fires(PointNodeLimit, in.key(i)); r != nil {
		return r.AtOp, true
	}
	return 0, false
}

// Panic reports whether fault i's analysis should panic. The caller
// raises the panic (inside its per-fault recover scope) with an error
// wrapping ErrInjectedPanic.
func (in *Injector) Panic(i int) bool {
	if in == nil {
		return false
	}
	return in.fires(PointPanic, in.key(i)) != nil
}

// Latency returns the injected sleep for fault i (0 = none).
func (in *Injector) Latency(i int) time.Duration {
	if in == nil {
		return 0
	}
	if r := in.fires(PointLatency, in.key(i)); r != nil {
		return r.Latency
	}
	return 0
}

// WorkerCrash kills the worker process when a workerkill or shardtear
// rule selects fault i (fault-keyed by shard-global index). A firing
// shardtear first appends a torn partial line to the shard checkpoint
// through the Tear seam, then kills — a crash mid-append. With the real
// Kill (SIGKILL to self) this call never returns; tests substituting a
// recording stub get control back.
func (in *Injector) WorkerCrash(i int) {
	if in == nil {
		return
	}
	if r := in.fires(PointShardTear, in.key(i)); r != nil {
		if in.tear != nil {
			in.tear(r.Bytes)
		}
		in.kill()
		return
	}
	if in.fires(PointWorkerKill, in.key(i)) != nil {
		in.kill()
	}
}

// HeartbeatStall reports whether the worker's supervision heartbeats
// should fall silent from this tick on (sequence-keyed by heartbeat
// tick). Once true, the heartbeat loop stops sending for the remainder
// of the process lifetime; the caller enforces the latching.
func (in *Injector) HeartbeatStall() bool {
	if in == nil {
		return false
	}
	return in.fires(PointHeartbeatStall, in.next(PointHeartbeatStall)) != nil
}

// CheckpointWrite decides the fate of the next checkpoint append. err is
// nil for a clean write; otherwise keep is how many bytes of the line to
// leave behind as a torn tail (0 = none) and err wraps ErrDiskFull.
func (in *Injector) CheckpointWrite() (keep int, err error) {
	if in == nil {
		return 0, nil
	}
	if r := in.fires(PointCheckpointWrite, in.next(PointCheckpointWrite)); r != nil {
		return r.Bytes, ErrDiskFull
	}
	return 0, nil
}

// CheckpointSync decides the fate of the next checkpoint fsync (nil =
// clean).
func (in *Injector) CheckpointSync() error {
	if in == nil {
		return nil
	}
	if in.fires(PointCheckpointSync, in.next(PointCheckpointSync)) != nil {
		return ErrDiskFull
	}
	return nil
}

// hash01 maps (seed, point, key) to a uniform float64 in [0, 1) via a
// splitmix64 finalizer — stateless, so the decision is independent of
// evaluation order.
func hash01(seed int64, p Point, key int) float64 {
	x := uint64(seed)
	x ^= (uint64(p) + 1) * 0x9E3779B97F4A7C15
	x ^= uint64(int64(key)) * 0xBF58476D1CE4E5B9
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
