package supervise

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// fakeWorker is a scriptable in-process Worker.
type fakeWorker struct {
	events  chan Msg
	waitCh  chan struct{}
	mu      sync.Mutex
	err     error
	sigkill bool
	killed  bool
}

func newFakeWorker() *fakeWorker {
	return &fakeWorker{events: make(chan Msg, 64), waitCh: make(chan struct{})}
}

func (w *fakeWorker) Events() <-chan Msg { return w.events }
func (w *fakeWorker) Wait() error        { <-w.waitCh; return w.err }

// finish ends the worker: events close, then Wait unblocks with err.
func (w *fakeWorker) finish(err error, sigkill bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		return
	}
	w.killed = true
	w.err = err
	w.sigkill = sigkill
	close(w.events)
	close(w.waitCh)
}

// Kill models SIGKILL: instant death, no more events, signal exit.
func (w *fakeWorker) Kill() { w.finish(errors.New("killed"), true) }

// send delivers one protocol message unless the worker is already dead
// (a real dead process cannot write to its pipe either). Reports whether
// the worker is still alive.
func (w *fakeWorker) send(m Msg) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		return false
	}
	w.events <- m
	return true
}

// heartbeat sends a heartbeat every period from its own goroutine, as
// cmd/diffprop's workers do, until the returned stop is called or the
// worker dies. A script that blocks between protocol messages (a slow
// checkpoint fsync) stays alive under a short HeartbeatTimeout only
// this way.
func (w *fakeWorker) heartbeat(sh Shard, period time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if !w.send(Msg{V: ProtoVersion, Type: MsgHeartbeat, Shard: sh.Range()}) {
					return
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (w *fakeWorker) SigKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sigkill
}

// scriptLauncher runs each launched worker's behavior in a goroutine,
// mimicking ExecLauncher's kill-on-context-cancel contract.
type scriptLauncher struct {
	run      func(sh Shard, w *fakeWorker)
	launches atomic.Int64
	scripts  sync.WaitGroup
}

func (l *scriptLauncher) Launch(ctx context.Context, sh Shard) (Worker, error) {
	l.launches.Add(1)
	w := newFakeWorker()
	go func() {
		select {
		case <-ctx.Done():
			w.Kill()
		case <-w.waitCh:
		}
	}()
	l.scripts.Add(1)
	go func() {
		defer l.scripts.Done()
		l.run(sh, w)
	}()
	return w, nil
}

// reap waits for every launched script to return. A killed process is
// gone once it is killed, but a script goroutine runs on until its next
// send fails; a test that reuses the shard files must reap first.
func (l *scriptLauncher) reap() { l.scripts.Wait() }

// testStore implements Store over synthetic fault records. The
// fingerprint is derived from the shard range so bisected children get
// their own, like the real circuit-hash headers do.
type testStore struct{}

func (testStore) Header(lo, hi int) analysis.CheckpointHeader {
	h := sha256.Sum256([]byte(fmt.Sprintf("test-faults-%d-%d", lo, hi)))
	return analysis.CheckpointHeader{
		Kind:        "test",
		Circuit:     "fake",
		Faults:      hi - lo,
		Fingerprint: hex.EncodeToString(h[:16]),
	}.WithShard(lo, hi)
}

func (testStore) QuarantineRecord(global int) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"fault":%d,"err":"quarantined"}`, global)), nil
}

// faultRecord is what scripted workers persist for an analyzed fault.
type faultRecord struct {
	Fault int    `json:"fault"`
	Err   string `json:"err,omitempty"`
}

// analyzeShard is the scripted workers' shared analysis loop: resume the
// shard checkpoint, append records for unfinished faults, and die when
// the (global) poison fault is reached at the given attempt predicate.
// Returns true when the shard completed.
func analyzeShard(t *testing.T, sh Shard, w *fakeWorker, appended *atomic.Int64, dieAt func(global int) bool) bool {
	t.Helper()
	cp, resume, err := analysis.ResumeCheckpoint(sh.Path, testStore{}.Header(sh.Lo, sh.Hi))
	if err != nil {
		t.Errorf("worker resume %s: %v", sh.Range(), err)
		w.finish(errors.New("resume failed"), false)
		return false
	}
	defer cp.Close()
	if !w.send(Msg{V: ProtoVersion, Type: MsgHello, Shard: sh.Range(), PID: 1, Total: sh.Size()}) {
		return false
	}
	done := len(resume)
	for local := 0; local < sh.Size(); local++ {
		if _, ok := resume[local]; ok {
			continue
		}
		global := sh.Lo + local
		if dieAt != nil && dieAt(global) {
			w.finish(errors.New("worker crashed"), false)
			return false
		}
		if err := cp.Append(local, faultRecord{Fault: global}); err != nil {
			t.Errorf("worker append %d: %v", global, err)
		}
		appended.Add(1)
		done++
		if !w.send(Msg{V: ProtoVersion, Type: MsgHeartbeat, Shard: sh.Range(), Done: done}) {
			return false // killed mid-shard (context cancel, stall kill)
		}
	}
	cp.Close()
	if !w.send(Msg{V: ProtoVersion, Type: MsgDone, Shard: sh.Range(), Done: done}) {
		return false
	}
	w.finish(nil, false)
	return true
}

func checkMergedRecords(t *testing.T, recs map[int]json.RawMessage, total int, quarantined map[int]bool) {
	t.Helper()
	if len(recs) != total {
		t.Fatalf("merged %d records, want %d", len(recs), total)
	}
	for i := 0; i < total; i++ {
		var r faultRecord
		if err := json.Unmarshal(recs[i], &r); err != nil {
			t.Fatalf("record %d: %v (%s)", i, err, recs[i])
		}
		if r.Fault != i {
			t.Fatalf("record %d carries fault %d (cross-shard rebase broke)", i, r.Fault)
		}
		if quarantined[i] != (r.Err != "") {
			t.Fatalf("record %d err=%q, quarantined=%v", i, r.Err, quarantined[i])
		}
	}
}

func TestRunShardedAllComplete(t *testing.T) {
	var appended atomic.Int64
	l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) { analyzeShard(t, sh, w, &appended, nil) }}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{Launcher: l},
		Store:      testStore{},
		Faults:     10,
		Shards:     3,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 10, nil)
	s := res.Supervision
	if s.Deaths != 0 || s.Restarts != 0 || s.Bisects != 0 || len(s.Quarantined) != 0 {
		t.Fatalf("clean run reported supervision events: %+v", s)
	}
	if len(s.Completed) != 3 || appended.Load() != 10 {
		t.Fatalf("completed=%d appended=%d, want 3 shards / 10 appends", len(s.Completed), appended.Load())
	}
}

func TestWorkerDeathRestartsFromCheckpoint(t *testing.T) {
	var appended atomic.Int64
	var attempts atomic.Int64
	l := &scriptLauncher{}
	l.run = func(sh Shard, w *fakeWorker) {
		first := attempts.Add(1) == 1
		analyzeShard(t, sh, w, &appended, func(global int) bool {
			return first && global == 4 // die mid-shard on the first attempt only
		})
	}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{Launcher: l, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
		Store:      testStore{},
		Faults:     8,
		Shards:     1,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 8, nil)
	s := res.Supervision
	if s.Deaths != 1 || s.Restarts != 1 || s.Bisects != 0 {
		t.Fatalf("supervision = %+v, want 1 death / 1 restart / 0 bisects", s)
	}
	// Faults 0..3 were persisted before the death and must NOT have been
	// recomputed by the restarted worker: 8 total appends, not 12.
	if appended.Load() != 8 {
		t.Fatalf("workers appended %d records, want 8 (restart recomputed finished faults)", appended.Load())
	}
}

func TestPoisonFaultBisectedToQuarantine(t *testing.T) {
	const poison = 5
	var appended atomic.Int64
	l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) {
		analyzeShard(t, sh, w, &appended, func(global int) bool { return global == poison })
	}}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{
			Launcher:    l,
			MaxRestarts: -1, // escalate on first death: exercises the bisection ladder fast
			BackoffBase: time.Millisecond,
		},
		Store:  testStore{},
		Faults: 8,
		Shards: 1,
		Procs:  2,
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 8, map[int]bool{poison: true})
	s := res.Supervision
	if len(s.Quarantined) != 1 || s.Quarantined[0] != poison {
		t.Fatalf("quarantined %v, want [%d]", s.Quarantined, poison)
	}
	// 8 faults in one shard: bisections 0-8 → 4-8 → 4-6 → 5-6(quarantine).
	if s.Bisects != 3 || s.Deaths != 4 {
		t.Fatalf("supervision = %+v, want 3 bisects / 4 deaths", s)
	}
	if appended.Load() != 7 {
		t.Fatalf("appended %d records, want 7 (the 7 healthy faults exactly once)", appended.Load())
	}
	var rec faultRecord
	if err := json.Unmarshal(res.Records[poison], &rec); err != nil || rec.Err != "quarantined" {
		t.Fatalf("poison record = %s (%v)", res.Records[poison], err)
	}
}

func TestPoisonFlightTrailAndMetrics(t *testing.T) {
	const poison = 2
	var appended atomic.Int64
	l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) {
		analyzeShard(t, sh, w, &appended, func(global int) bool { return global == poison })
	}}
	o := &obs.Observer{Flight: obs.NewFlightRecorder(256), Metrics: obs.NewRegistry()}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{Launcher: l, MaxRestarts: -1, BackoffBase: time.Millisecond, Obs: o},
		Store:      testStore{},
		Faults:     4,
		Shards:     1,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 4, map[int]bool{poison: true})
	kinds := map[string]int{}
	for _, ev := range o.Flight.Snapshot() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.FlightKind{obs.FlightSpawn, obs.FlightWorkerDeath, obs.FlightBisect, obs.FlightQuarantine} {
		if kinds[want.String()] == 0 {
			t.Fatalf("no %s flight events recorded (got %v)", want, kinds)
		}
	}
	cm := o.CampaignMetrics()
	if cm.SupervisorWorkerDeaths.Value() == 0 || cm.SupervisorBisects.Value() == 0 || cm.SupervisorQuarantined.Value() != 1 {
		t.Fatalf("supervisor metrics deaths=%d bisects=%d quarantined=%d",
			cm.SupervisorWorkerDeaths.Value(), cm.SupervisorBisects.Value(), cm.SupervisorQuarantined.Value())
	}
	if cm.SupervisorWorkersLive.Value() != 0 {
		t.Fatalf("workers-live gauge = %d after completion, want 0", cm.SupervisorWorkersLive.Value())
	}
}

func TestHeartbeatStallKilledAndRestarted(t *testing.T) {
	var appended atomic.Int64
	var attempts atomic.Int64
	l := &scriptLauncher{}
	l.run = func(sh Shard, w *fakeWorker) {
		if attempts.Add(1) == 1 {
			// A wedged worker: says hello, then goes protocol-silent
			// forever. Only the supervisor's stall kill ends it.
			w.events <- Msg{V: ProtoVersion, Type: MsgHello, Shard: sh.Range(), PID: 1}
			return
		}
		// The healthy attempt heartbeats like a real worker: its
		// checkpoint fsyncs alone can outlast the 30 ms timeout on a
		// busy disk.
		defer w.heartbeat(sh, 5*time.Millisecond)()
		analyzeShard(t, sh, w, &appended, nil)
	}
	o := &obs.Observer{Flight: obs.NewFlightRecorder(64)}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{
			Launcher:         l,
			HeartbeatTimeout: 30 * time.Millisecond,
			HeartbeatPoll:    5 * time.Millisecond,
			BackoffBase:      time.Millisecond,
			Obs:              o,
		},
		Store:  testStore{},
		Faults: 3,
		Shards: 1,
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 3, nil)
	if res.Supervision.Deaths != 1 || res.Supervision.Restarts != 1 {
		t.Fatalf("supervision = %+v, want 1 stall death + 1 restart", res.Supervision)
	}
	// The death must be classified as a stall, not an OOM kill, even
	// though the worker died of (the supervisor's own) SIGKILL.
	for _, ev := range o.Flight.Snapshot() {
		if ev.Kind == obs.FlightWorkerDeath.String() && ev.Label != obs.FlightLabelName(obs.FlightLabelStall) {
			t.Fatalf("worker death labelled %q, want stall", ev.Label)
		}
	}
}

// TestHeartbeatKeepsSlowWorkerAlive: any protocol message resets the
// stall clock, so a worker that blocks for several HeartbeatTimeouts
// between records (a slow fsync, a costly fault) but heartbeats meanwhile
// is never killed as stalled.
func TestHeartbeatKeepsSlowWorkerAlive(t *testing.T) {
	const timeout = 30 * time.Millisecond
	var appended atomic.Int64
	l := &scriptLauncher{}
	l.run = func(sh Shard, w *fakeWorker) {
		defer w.heartbeat(sh, timeout/4)()
		analyzeShard(t, sh, w, &appended, func(int) bool {
			time.Sleep(3 * timeout)
			return false
		})
	}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{
			Launcher:         l,
			HeartbeatTimeout: timeout,
			HeartbeatPoll:    5 * time.Millisecond,
			BackoffBase:      time.Millisecond,
		},
		Store:  testStore{},
		Faults: 3,
		Shards: 1,
		Dir:    t.TempDir(),
	})
	l.reap()
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 3, nil)
	if res.Supervision.Deaths != 0 || res.Supervision.Restarts != 0 {
		t.Fatalf("supervision = %+v, want no deaths: the worker heartbeat throughout", res.Supervision)
	}
}

// TestSigKillDeathsRelaunchTheSameLease: SIGKILL deaths (the OOM
// killer's signature) take the path every other death takes. Each
// relaunch is the lease's own launch again — same range, same checkpoint
// — with only its Attempt advanced.
func TestSigKillDeathsRelaunchTheSameLease(t *testing.T) {
	var appended atomic.Int64
	var mu sync.Mutex
	var launched []Shard
	l := &scriptLauncher{}
	l.run = func(sh Shard, w *fakeWorker) {
		mu.Lock()
		launched = append(launched, sh)
		n := len(launched)
		mu.Unlock()
		if n <= 2 {
			// The OOM killer's signature: SIGKILL, no protocol goodbye.
			w.finish(errors.New("oom killed"), true)
			return
		}
		analyzeShard(t, sh, w, &appended, nil)
	}
	res, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{
			Launcher:    l,
			MaxRestarts: 5,
			BackoffBase: time.Millisecond,
		},
		Store:  testStore{},
		Faults: 4,
		Shards: 1,
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 4, nil)
	s := res.Supervision
	if s.Deaths != 2 || s.Restarts != 2 || s.Bisects != 0 {
		t.Fatalf("supervision = %+v, want 2 oom deaths / 2 restarts / 0 bisections", s)
	}
	if len(launched) != 3 {
		t.Fatalf("%d launches, want 3", len(launched))
	}
	for i, sh := range launched {
		want := launched[0]
		want.Attempt = i
		if sh != want {
			t.Fatalf("launch %d = %+v, want the first launch %+v with Attempt %d", i, sh, launched[0], i)
		}
	}
}

func TestContextCancelStopsWithoutRestarts(t *testing.T) {
	started := make(chan struct{}, 8)
	l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) {
		started <- struct{}{}
		// Run forever (heartbeating, so no stall kill): only the
		// launcher's context kill ends this worker.
		for w.send(Msg{V: ProtoVersion, Type: MsgHeartbeat, Shard: sh.Range(), Done: 0}) {
			time.Sleep(time.Millisecond)
		}
	}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var res CampaignResult
	go func() {
		var err error
		res, err = RunSharded(ctx, CampaignConfig{
			Supervisor: Config{Launcher: l},
			Store:      testStore{},
			Faults:     6,
			Shards:     2,
			Dir:        t.TempDir(),
		})
		done <- err
	}()
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunSharded returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor did not unwind after cancel")
	}
	if res.Supervision.Restarts != 0 {
		t.Fatalf("supervisor restarted workers during shutdown: %+v", res.Supervision)
	}
	if l.launches.Load() != 2 {
		t.Fatalf("launches = %d, want 2 (no re-dispatch after cancel)", l.launches.Load())
	}
}

func TestSupervisorRerunResumesShardCheckpoints(t *testing.T) {
	// A supervisor that was itself killed leaves shard checkpoints behind;
	// rerunning the campaign over the same dir must resume them.
	dir := t.TempDir()
	var appended atomic.Int64
	run := func(dieAt func(int) bool) (CampaignResult, error) {
		l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) {
			analyzeShard(t, sh, w, &appended, dieAt)
		}}
		defer l.reap()
		return RunSharded(context.Background(), CampaignConfig{
			Supervisor: Config{Launcher: l, MaxRestarts: -1},
			Store:      testStore{},
			Faults:     6,
			Shards:     2,
			Dir:        dir,
		})
	}
	// First run: each worker dies partway and the campaign is cancelled
	// (the operator killing the supervisor), leaving partial checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	l := &scriptLauncher{run: func(sh Shard, w *fakeWorker) {
		analyzeShard(t, sh, w, &appended, func(global int) bool {
			if global == 2 || global == 5 {
				cancel() // simulate the operator killing the supervisor mid-flight
				return true
			}
			return false
		})
	}}
	_, err := RunSharded(ctx, CampaignConfig{
		Supervisor: Config{Launcher: l},
		Store:      testStore{},
		Faults:     6,
		Shards:     2,
		Dir:        dir,
	})
	// A worker launched just before the cancel may still be resuming its
	// checkpoint; it must be gone before the rerun opens the same files.
	l.reap()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run = %v, want context.Canceled", err)
	}
	firstAppends := appended.Load()
	if firstAppends == 0 {
		t.Fatal("first run persisted nothing; test premise broken")
	}
	// Second run over the same dir: must finish, recomputing nothing.
	res, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMergedRecords(t, res.Records, 6, nil)
	if appended.Load() != 6 {
		t.Fatalf("total appends across both runs = %d, want 6 (rerun recomputed persisted faults)", appended.Load())
	}
}

func TestLaunchFailureAborts(t *testing.T) {
	boom := errors.New("no such binary")
	l := launcherFunc(func(ctx context.Context, sh Shard) (Worker, error) { return nil, boom })
	_, err := RunSharded(context.Background(), CampaignConfig{
		Supervisor: Config{Launcher: l},
		Store:      testStore{},
		Faults:     4,
		Shards:     2,
		Dir:        t.TempDir(),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want launch failure", err)
	}
}

type launcherFunc func(ctx context.Context, sh Shard) (Worker, error)

func (f launcherFunc) Launch(ctx context.Context, sh Shard) (Worker, error) { return f(ctx, sh) }

func TestBackoffCappedAndJittered(t *testing.T) {
	s := New(Config{Launcher: launcherFunc(nil), BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	for n := 1; n <= 10; n++ {
		d := s.backoff(n)
		if d < 100*time.Millisecond {
			t.Fatalf("backoff(%d) = %v below base", n, d)
		}
		if d > time.Second+time.Second/2 {
			t.Fatalf("backoff(%d) = %v above cap+jitter", n, d)
		}
	}
	if d := s.backoff(1); d >= s.backoff(8)*2 {
		t.Logf("jitter made attempt 1 (%v) out-dwarf attempt 8 — acceptable but unusual", d)
	}
}
