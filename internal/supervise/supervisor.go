// The supervisor: lease-tracked shard dispatch over worker subprocesses.
//
// Each shard of the fault set is a lease (see Shard). The supervisor
// launches up to procs workers at once, watches each through its JSONL
// protocol stream and its exit status, and reacts to the three ways a
// worker stops being useful:
//
//   - death (non-zero exit, SIGKILL, or exit 0 without a done message):
//     the lease is re-dispatched after capped exponential backoff with
//     jitter; the restarted worker resumes from the shard checkpoint, so
//     completed faults are never recomputed;
//   - heartbeat stall (a wedged runtime): the supervisor SIGKILLs the
//     worker itself after HeartbeatTimeout of protocol silence, then
//     treats it as a death;
//   - repeated death (a poison fault): after MaxRestarts failed
//     re-dispatches the shard is bisected — both halves seeded with the
//     parent's completed records — until the poison fault is alone in a
//     single-fault shard, which is then quarantined as an Err record
//     instead of failing the campaign.
//
// A SIGKILL death (the OOM killer's signature) is labelled apart from the
// other deaths but takes the same path: a relaunch is always the lease's
// own launch again, with only its Attempt advanced.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os/exec"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults for the zero Config fields.
const (
	DefaultHeartbeatTimeout = 10 * time.Second
	DefaultMaxRestarts      = 2
	DefaultBackoffBase      = 50 * time.Millisecond
	DefaultBackoffMax       = 2 * time.Second
)

// Config tunes a Supervisor.
type Config struct {
	// Launcher starts worker subprocesses.
	Launcher Launcher
	// Total is the campaign's global fault count (progress denominator).
	Total int
	// HeartbeatTimeout is how long a worker may stay protocol-silent
	// before the supervisor kills it as stalled (0 = default).
	HeartbeatTimeout time.Duration
	// HeartbeatPoll is the stall watchdog's check period (0 = timeout/4).
	HeartbeatPoll time.Duration
	// MaxRestarts is how many re-dispatches one lease gets before the
	// supervisor escalates to bisection/quarantine (0 = default; negative
	// = none, first death escalates).
	MaxRestarts int
	// BackoffBase and BackoffMax bound the restart backoff (0 = defaults).
	BackoffBase, BackoffMax time.Duration

	// ChildShard prepares a bisected child lease covering global faults
	// [lo, hi) of parent's range: it must create the child's checkpoint
	// file seeded with the parent's completed records for that range, and
	// return the lease pointing at it.
	ChildShard func(parent Shard, lo, hi int) (Shard, error)
	// Quarantine records the poison fault of a single-fault lease
	// (sh.Size() == 1, global index sh.Lo) as an Err record in the
	// shard's checkpoint, so the merged campaign completes with the fault
	// isolated instead of failing.
	Quarantine func(sh Shard) error

	// Obs and Progress are optional observability hooks: every
	// supervision event is emitted to Obs, and Progress is called
	// (serialized) with the campaign-wide completed-fault count as
	// heartbeats and completions arrive.
	Obs      *obs.Observer
	Progress func(done, total int)
}

// Result summarizes a supervised run.
type Result struct {
	// Completed holds every lease that finished (post-bisection shape,
	// disjoint, covering the full range), including quarantined ones.
	Completed []Shard
	// Quarantined lists poison faults isolated as Err records, by global
	// index, in quarantine order.
	Quarantined []int
	// Deaths, Restarts and Bisects count supervision events: worker
	// deaths of any cause, lease re-dispatches and shard splits.
	Deaths, Restarts, Bisects int
}

// death causes, mapped onto flight labels.
const (
	causeExit  = obs.FlightLabelExit
	causeStall = obs.FlightLabelStall
	causeOOM   = obs.FlightLabelOOM
)

// Supervisor runs shard leases to completion over worker subprocesses.
type Supervisor struct {
	cfg Config

	mu    sync.Mutex
	done  map[int]int // lease lo -> completed faults (live + finished)
	total int
}

// New builds a Supervisor, applying defaults to zero Config fields.
func New(cfg Config) *Supervisor {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.HeartbeatPoll <= 0 {
		cfg.HeartbeatPoll = cfg.HeartbeatTimeout / 4
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	return &Supervisor{cfg: cfg, done: make(map[int]int), total: cfg.Total}
}

// workerExit is what one worker's monitor reports back to the run loop.
type workerExit struct {
	sh        Shard
	slot      int
	completed bool  // done message seen AND exit status 0
	cause     uint8 // death cause when !completed
	exitCode  int   // -1 when killed by signal
	doneCount int   // last completed-fault count the worker reported
}

// Run drives the leases to completion with at most procs concurrent
// workers. It returns when every lease has completed (or been bisected
// into leases that did), when the context is cancelled (all workers are
// killed first), or when a launch/bisect/quarantine infrastructure
// failure makes progress impossible.
func (s *Supervisor) Run(ctx context.Context, shards []Shard, procs int) (Result, error) {
	if procs <= 0 {
		procs = len(shards)
	}
	// An internal context lets an infrastructure failure kill the
	// remaining workers without waiting for the parent context.
	ctx, abort := context.WithCancel(ctx)
	defer abort()

	var (
		res      Result
		firstErr error
		pending  = append([]Shard(nil), shards...)
		events   = make(chan workerExit)
		requeue  = make(chan Shard)
		active   = 0
		waiters  = 0
		slots    = 0
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		abort()
	}
	for len(pending)+active+waiters > 0 {
		for firstErr == nil && ctx.Err() == nil && active < procs && len(pending) > 0 {
			sh := pending[0]
			pending = pending[1:]
			slot := slots
			slots++
			w, err := s.cfg.Launcher.Launch(ctx, sh)
			if err != nil {
				fail(err)
				break
			}
			s.cfg.Obs.Emit(obs.Event{Kind: obs.FlightSpawn, Worker: slot, Index: sh.Lo, A: int64(sh.Size()), B: int64(sh.Attempt)})
			s.gauge(+1)
			active++
			go func() { events <- s.monitor(sh, slot, w) }()
		}
		if len(pending) > 0 && active == 0 && waiters == 0 {
			// Nothing running, nothing coming back, work left: the launch
			// path failed (firstErr is set) or the context is gone.
			break
		}
		if active+waiters == 0 {
			break
		}
		select {
		case sh := <-requeue:
			waiters--
			pending = append(pending, sh)
		case ev := <-events:
			active--
			s.gauge(-1)
			if ev.completed {
				s.leaseDone(ev.sh, &res)
				continue
			}
			res.Deaths++
			s.cfg.Obs.Emit(obs.Event{Kind: obs.FlightWorkerDeath, Label: ev.cause, Worker: ev.slot, Index: ev.sh.Lo, A: int64(ev.exitCode), B: int64(ev.doneCount)})
			if ctx.Err() != nil || firstErr != nil {
				continue // shutting down: do not re-dispatch
			}
			sh := ev.sh
			sh.Attempt++
			if sh.Attempt > s.cfg.MaxRestarts {
				if err := s.escalate(sh, &pending, &res); err != nil {
					fail(err)
				}
				continue
			}
			res.Restarts++
			delay := s.backoff(sh.Attempt)
			s.cfg.Obs.Emit(obs.Event{Kind: obs.FlightRestart, Worker: ev.slot, Index: sh.Lo, A: int64(sh.Attempt), B: delay.Microseconds()})
			waiters++
			go func(sh Shard) {
				t := time.NewTimer(delay)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
				}
				requeue <- sh
			}(sh)
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// escalate handles a lease whose restart budget is spent: quarantine the
// fault when it is alone, bisect otherwise.
func (s *Supervisor) escalate(sh Shard, pending *[]Shard, res *Result) error {
	if sh.Size() == 1 {
		if s.cfg.Quarantine == nil {
			return fmt.Errorf("supervise: fault %d repeatedly kills its worker and no quarantine handler is configured", sh.Lo)
		}
		if err := s.cfg.Quarantine(sh); err != nil {
			return fmt.Errorf("supervise: quarantining fault %d: %w", sh.Lo, err)
		}
		res.Quarantined = append(res.Quarantined, sh.Lo)
		s.cfg.Obs.Emit(obs.Event{Kind: obs.FlightQuarantine, Worker: -1, Index: sh.Lo, A: int64(sh.Attempt)})
		s.leaseDone(sh, res)
		return nil
	}
	mid := sh.Lo + sh.Size()/2
	left, err := s.cfg.ChildShard(sh, sh.Lo, mid)
	if err != nil {
		return fmt.Errorf("supervise: bisecting shard %s: %w", sh.Range(), err)
	}
	right, err := s.cfg.ChildShard(sh, mid, sh.Hi)
	if err != nil {
		return fmt.Errorf("supervise: bisecting shard %s: %w", sh.Range(), err)
	}
	left.Attempt, right.Attempt = 0, 0
	res.Bisects++
	s.cfg.Obs.Emit(obs.Event{Kind: obs.FlightBisect, Worker: -1, Index: sh.Lo, A: int64(sh.Size()), B: int64(mid)})
	s.mu.Lock()
	delete(s.done, sh.Lo) // children report under their own lo keys
	s.mu.Unlock()
	*pending = append(*pending, left, right)
	return nil
}

// leaseDone records a finished lease and publishes progress.
func (s *Supervisor) leaseDone(sh Shard, res *Result) {
	res.Completed = append(res.Completed, sh)
	s.progress(sh, sh.Size())
}

// monitor owns one worker's lifetime: it tracks protocol liveness, kills
// the worker on heartbeat timeout, and classifies the exit.
func (s *Supervisor) monitor(sh Shard, slot int, w Worker) workerExit {
	var (
		mu        sync.Mutex
		last      = time.Now()
		doneSeen  = false
		doneCount = 0
		stalled   = false
	)
	stopWatch := make(chan struct{})
	go func() {
		t := time.NewTicker(s.cfg.HeartbeatPoll)
		defer t.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-t.C:
				mu.Lock()
				quiet := time.Since(last)
				mu.Unlock()
				if quiet > s.cfg.HeartbeatTimeout {
					mu.Lock()
					stalled = true
					mu.Unlock()
					w.Kill()
					return
				}
			}
		}
	}()
	for m := range w.Events() {
		mu.Lock()
		last = time.Now()
		switch m.Type {
		case MsgHeartbeat, MsgDone:
			if m.Done > doneCount {
				doneCount = m.Done
			}
			if m.Type == MsgDone {
				doneSeen = true
			}
		}
		mu.Unlock()
		if m.Type == MsgHeartbeat || m.Type == MsgDone {
			s.progress(sh, doneCount)
		}
	}
	err := w.Wait()
	close(stopWatch)
	mu.Lock()
	defer mu.Unlock()
	ev := workerExit{sh: sh, slot: slot, doneCount: doneCount, exitCode: exitCode(err)}
	switch {
	case err == nil && doneSeen:
		ev.completed = true
	case stalled:
		ev.cause = causeStall
	case w.SigKilled():
		// SIGKILL we did not send: the OOM killer's signature (or an
		// operator's kill -9 — indistinguishable, treated the same).
		ev.cause = causeOOM
	default:
		ev.cause = causeExit
	}
	return ev
}

// backoff computes the capped exponential restart delay with jitter for
// a lease's n-th attempt (n >= 1).
func (s *Supervisor) backoff(n int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < n && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	// Up to +50% jitter so restarted workers do not stampede the disk or
	// the memory ceiling in lockstep.
	return d + rand.N(d/2+1)
}

// progress folds one lease's completed count into the campaign total and
// publishes it.
func (s *Supervisor) progress(sh Shard, done int) {
	s.mu.Lock()
	s.done[sh.Lo] = done
	sum := 0
	for _, d := range s.done {
		sum += d
	}
	cb := s.cfg.Progress
	total := s.total
	s.mu.Unlock()
	if cb != nil {
		cb(sum, total)
	}
}

// gauge adjusts the live-workers gauge (nil-safe).
func (s *Supervisor) gauge(delta int64) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.CampaignMetrics().SupervisorWorkersLive.Add(delta)
	}
}

// exitCode extracts a process exit code (-1 for signal deaths and
// non-exec errors, 0 for nil).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}
