package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"syscall"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in != New(nil) {
		t.Fatal("New(nil) must be nil")
	}
	if New(&Config{}) != nil {
		t.Fatal("New of a rule-less config must be nil")
	}
	if at, ok := in.BudgetAbort(0); ok || at != 0 {
		t.Fatal("nil injector armed a budget abort")
	}
	if _, ok := in.NodeLimitAbort(0); ok {
		t.Fatal("nil injector armed a node-limit abort")
	}
	if in.Panic(0) || in.Latency(0) != 0 {
		t.Fatal("nil injector injected panic/latency")
	}
	if _, err := in.CheckpointWrite(); err != nil {
		t.Fatal("nil injector failed a checkpoint write")
	}
	if err := in.CheckpointSync(); err != nil {
		t.Fatal("nil injector failed a checkpoint sync")
	}
	if in.Injected() != 0 || in.Has(PointBudget) {
		t.Fatal("nil injector reported state")
	}
}

func TestIndicesSelectExactly(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointBudget, Indices: []int{3, 17}, AtOp: 5}}})
	for i := 0; i < 30; i++ {
		at, ok := in.BudgetAbort(i)
		want := i == 3 || i == 17
		if ok != want {
			t.Fatalf("fault %d: fired=%v, want %v", i, ok, want)
		}
		if ok && at != 5 {
			t.Fatalf("fault %d: atOp=%d, want 5", i, at)
		}
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("Injected()=%d, want 2", got)
	}
}

// Probabilistic fault-keyed decisions are a pure function of (seed,
// point, index): independent injector instances agree, evaluation order
// is irrelevant, and different seeds pick different sets.
func TestSeededDecisionsDeterministic(t *testing.T) {
	cfg := &Config{Seed: 42, Rules: []Rule{{Point: PointPanic, Prob: 0.3}}}
	a, b := New(cfg), New(cfg)
	var hitsA, hitsB []int
	for i := 0; i < 200; i++ {
		if a.Panic(i) {
			hitsA = append(hitsA, i)
		}
	}
	for i := 199; i >= 0; i-- { // reverse order on purpose
		if b.Panic(i) {
			hitsB = append(hitsB, i)
		}
	}
	if len(hitsA) == 0 || len(hitsA) == 200 {
		t.Fatalf("p=0.3 over 200 faults fired %d times", len(hitsA))
	}
	for i, j := 0, len(hitsB)-1; j >= 0; i, j = i+1, j-1 {
		if hitsA[i] != hitsB[j] {
			t.Fatalf("same seed disagreed: %v vs reversed %v", hitsA, hitsB)
		}
	}
	other := New(&Config{Seed: 43, Rules: cfg.Rules})
	same := true
	for i := 0; i < 200; i++ {
		if other.Panic(i) != a.Panic(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical decisions")
	}
}

func TestPointsAreIndependent(t *testing.T) {
	in := New(&Config{Seed: 7, Rules: []Rule{
		{Point: PointBudget, Prob: 0.5},
		{Point: PointNodeLimit, Prob: 0.5},
	}})
	diff := false
	for i := 0; i < 100; i++ {
		_, b := in.BudgetAbort(i)
		_, n := in.NodeLimitAbort(i)
		if b != n {
			diff = true
		}
	}
	if !diff {
		t.Fatal("budget and nodelimit points share decisions; they must hash independently")
	}
}

func TestCountCapsFirings(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointCheckpointSync, Count: 2}}})
	fails := 0
	for i := 0; i < 10; i++ {
		if in.CheckpointSync() != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("count=2 rule fired %d times", fails)
	}
}

func TestCheckpointWriteTornBytes(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointCheckpointWrite, Indices: []int{1}, Bytes: 10}}})
	if _, err := in.CheckpointWrite(); err != nil {
		t.Fatal("append 0 should pass")
	}
	keep, err := in.CheckpointWrite()
	if err == nil || keep != 10 {
		t.Fatalf("append 1: keep=%d err=%v, want torn 10-byte failure", keep, err)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("injected write error %v must wrap ErrInjected and ENOSPC", err)
	}
}

func TestLatency(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointLatency, Indices: []int{4}, Latency: 3 * time.Millisecond}}})
	if d := in.Latency(0); d != 0 {
		t.Fatalf("fault 0 latency = %v", d)
	}
	if d := in.Latency(4); d != 3*time.Millisecond {
		t.Fatalf("fault 4 latency = %v", d)
	}
}

func TestParse(t *testing.T) {
	cfg, err := Parse("seed=7;budget:p=0.35,at=2;latency:i=3+9,d=2ms;ckptwrite:i=5,bytes=10")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || len(cfg.Rules) != 3 {
		t.Fatalf("seed=%d rules=%d", cfg.Seed, len(cfg.Rules))
	}
	b := cfg.Rules[0]
	if b.Point != PointBudget || b.Prob != 0.35 || b.AtOp != 2 {
		t.Fatalf("budget rule = %+v", b)
	}
	l := cfg.Rules[1]
	if l.Point != PointLatency || len(l.Indices) != 2 || l.Indices[1] != 9 || l.Latency != 2*time.Millisecond {
		t.Fatalf("latency rule = %+v", l)
	}
	w := cfg.Rules[2]
	if w.Point != PointCheckpointWrite || w.Bytes != 10 {
		t.Fatalf("ckptwrite rule = %+v", w)
	}
}

func TestParseEmpty(t *testing.T) {
	cfg, err := Parse("  ")
	if err != nil || cfg != nil {
		t.Fatalf("empty spec: cfg=%v err=%v", cfg, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus:p=0.5",        // unknown point
		"budget:q=1",         // unknown key
		"budget:p=2",         // probability out of range
		"budget:p=0.5,i=1",   // exclusive selectors
		"budget:at=0",        // threshold below 1
		"latency:d=-1s",      // negative duration
		"seed=x;budget:p=.1", // bad seed
		"seed=7",             // no rules
		"memsample:count=3",  // retired point (it faked heap samples)
		"memsample:p=0.1",    // retired point
		":p=0.5",             // no point name (the retired slot has none)
		"budget:mem=5",       // retired key
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

// TestSeededReplayPinned pins which of the first 200 keys every
// probabilistic point fires on for one seed, so a spec replays from its
// seed alone across releases. The table was captured before the memsample
// point was retired; the surviving points keep their numeric values (the
// hash mixes them in), so it must not change.
func TestSeededReplayPinned(t *testing.T) {
	want := map[Point][]int{
		PointBudget:          {39, 51, 57, 61, 75, 103, 122, 125, 142, 167, 180},
		PointNodeLimit:       {1, 13, 37, 61, 87, 93, 146, 158, 167, 187},
		PointPanic:           {28, 83, 97, 130, 140, 168, 183, 192, 196, 199},
		PointLatency:         {14, 24, 39, 46, 51, 86, 135, 136, 150},
		PointCheckpointWrite: {33, 37, 60, 64, 71, 77, 79, 91, 141, 145, 151, 173},
		PointCheckpointSync:  {18, 45, 71, 96, 117, 119, 176, 190},
		PointWorkerKill:      {48, 61, 78, 88, 145, 152, 163, 168, 195},
		PointHeartbeatStall:  {15, 17, 66, 84, 130, 177, 198},
		PointShardTear:       {1, 19, 21, 23, 32, 51, 87, 92, 117, 122, 160, 163},
	}
	for p, keys := range want {
		in := New(&Config{Seed: 20, Rules: []Rule{{Point: p, Prob: 0.05}}, Kill: func() {}})
		var got []int
		in.SetEventHook(func(_ Point, key int) { got = append(got, key) })
		for k := 0; k < 200; k++ {
			switch p {
			case PointBudget:
				in.BudgetAbort(k)
			case PointNodeLimit:
				in.NodeLimitAbort(k)
			case PointPanic:
				in.Panic(k)
			case PointLatency:
				in.Latency(k)
			case PointCheckpointWrite:
				in.CheckpointWrite()
			case PointCheckpointSync:
				in.CheckpointSync()
			case PointWorkerKill, PointShardTear:
				in.WorkerCrash(k)
			case PointHeartbeatStall:
				in.HeartbeatStall()
			}
		}
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("%s (point %d) fired on %v, want %v", p, p, got, keys)
		}
	}
	if n := len(want); n != int(numPoints)-1 {
		t.Fatalf("table covers %d points, want every point but the retired slot (%d)", n, numPoints-1)
	}
}

func TestSetEventHookSeesEveryInjection(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointBudget, Indices: []int{3, 17}, AtOp: 5}}})
	type hit struct {
		p   Point
		key int
	}
	var hits []hit
	in.SetEventHook(func(p Point, key int) { hits = append(hits, hit{p, key}) })
	for i := 0; i < 20; i++ {
		in.BudgetAbort(i)
	}
	if len(hits) != 2 {
		t.Fatalf("hook saw %d injections, want 2 (scripted indices 3 and 17)", len(hits))
	}
	if hits[0] != (hit{PointBudget, 3}) || hits[1] != (hit{PointBudget, 17}) {
		t.Fatalf("hook saw %v, want budget at keys 3 then 17", hits)
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected() = %d after hook installed, want 2", in.Injected())
	}

	// Nil-safe on a nil injector and after disarming.
	var nilIn *Injector
	nilIn.SetEventHook(func(Point, int) { t.Fatal("hook on nil injector fired") })
	in.SetEventHook(nil)
	in.BudgetAbort(3)
}

// KeyOffset rebases every fault-keyed decision to shard-global indices: a
// worker analyzing global faults [96, ...) as local [0, ...) fires the
// same rules an unsharded run would at the global index.
func TestKeyOffsetShiftsFaultKeyedPoints(t *testing.T) {
	rules := []Rule{
		{Point: PointBudget, Indices: []int{100}, AtOp: 3},
		{Point: PointLatency, Indices: []int{100}, Latency: time.Millisecond},
		{Point: PointPanic, Indices: []int{100}},
	}
	sharded := New(&Config{Rules: rules, KeyOffset: 96})
	if _, ok := sharded.BudgetAbort(100); ok {
		t.Fatal("local index 100 (global 196) fired a rule scripted for global 100")
	}
	if at, ok := sharded.BudgetAbort(4); !ok || at != 3 {
		t.Fatalf("local 4 + offset 96: atOp=%d ok=%v, want the global-100 rule", at, ok)
	}
	if sharded.Latency(4) != time.Millisecond || !sharded.Panic(4) {
		t.Fatal("latency/panic did not rebase to the global index")
	}

	// Probabilistic selection agrees with an unsharded injector on the
	// same global keys.
	probCfg := []Rule{{Point: PointBudget, Prob: 0.3}}
	whole := New(&Config{Seed: 11, Rules: probCfg})
	part := New(&Config{Seed: 11, Rules: probCfg, KeyOffset: 50})
	for i := 0; i < 100; i++ {
		_, w := whole.BudgetAbort(50 + i)
		_, p := part.BudgetAbort(i)
		if w != p {
			t.Fatalf("global fault %d: unsharded fired=%v, sharded fired=%v", 50+i, w, p)
		}
	}
}

func TestWorkerCrashKillsAtScriptedFault(t *testing.T) {
	kills := 0
	in := New(&Config{
		Rules: []Rule{{Point: PointWorkerKill, Indices: []int{10}}},
		Kill:  func() { kills++ },
	})
	for i := 0; i < 20; i++ {
		in.WorkerCrash(i)
	}
	if kills != 1 {
		t.Fatalf("workerkill at i=10 killed %d times over 20 faults, want 1", kills)
	}
	var nilIn *Injector
	nilIn.WorkerCrash(0) // must not crash
}

// A shardtear firing appends the torn bytes through the Tear seam BEFORE
// killing — the order that models a crash mid-append.
func TestShardTearTearsThenKills(t *testing.T) {
	var events []string
	in := New(&Config{
		Rules: []Rule{{Point: PointShardTear, Indices: []int{5}}},
		Tear:  func(n int) { events = append(events, fmt.Sprintf("tear(%d)", n)) },
		Kill:  func() { events = append(events, "kill") },
	})
	in.WorkerCrash(4)
	if len(events) != 0 {
		t.Fatalf("unselected fault crashed: %v", events)
	}
	in.WorkerCrash(5)
	if len(events) != 2 || events[0] != "tear(16)" || events[1] != "kill" {
		t.Fatalf("shardtear events = %v, want [tear(16) kill] (default 16 torn bytes, tear before kill)", events)
	}
}

// Process-level points are attempt-gated: without rep they arm only a
// worker's first launch, so a restarted worker converges; with rep the
// kill recurs on every attempt — the poison fault bisection quarantines.
func TestProcessPointsAttemptGated(t *testing.T) {
	for _, tc := range []struct {
		attempt   int
		repeat    bool
		wantKills int
	}{
		{attempt: 0, repeat: false, wantKills: 1},
		{attempt: 1, repeat: false, wantKills: 0},
		{attempt: 3, repeat: true, wantKills: 1},
	} {
		kills := 0
		in := New(&Config{
			Rules:   []Rule{{Point: PointWorkerKill, Indices: []int{2}, Repeat: tc.repeat}},
			Attempt: tc.attempt,
			Kill:    func() { kills++ },
		})
		for i := 0; i < 5; i++ {
			in.WorkerCrash(i)
		}
		if kills != tc.wantKills {
			t.Errorf("attempt=%d rep=%v: %d kills, want %d", tc.attempt, tc.repeat, kills, tc.wantKills)
		}
	}

	// Fault-keyed analysis points ignore the attempt gate entirely.
	in := New(&Config{Rules: []Rule{{Point: PointBudget, Indices: []int{2}}}, Attempt: 4})
	if _, ok := in.BudgetAbort(2); !ok {
		t.Fatal("budget abort was attempt-gated; only process-level points may be")
	}
}

func TestHeartbeatStallSequenceKeyed(t *testing.T) {
	in := New(&Config{Rules: []Rule{{Point: PointHeartbeatStall, Indices: []int{2}}}})
	got := []bool{in.HeartbeatStall(), in.HeartbeatStall(), in.HeartbeatStall(), in.HeartbeatStall()}
	want := []bool{false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heartbeat ticks stalled %v, want %v (scripted tick 2)", got, want)
		}
	}
	var nilIn *Injector
	if nilIn.HeartbeatStall() {
		t.Fatal("nil injector stalled a heartbeat")
	}
}

func TestParseProcessPoints(t *testing.T) {
	cfg, err := Parse("seed=3;workerkill:i=7,rep=1;hbstall:i=2;shardtear:p=0.1,bytes=20")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(cfg.Rules))
	}
	k := cfg.Rules[0]
	if k.Point != PointWorkerKill || !k.Repeat || len(k.Indices) != 1 || k.Indices[0] != 7 {
		t.Fatalf("workerkill rule = %+v", k)
	}
	if cfg.Rules[1].Point != PointHeartbeatStall || cfg.Rules[1].Repeat {
		t.Fatalf("hbstall rule = %+v", cfg.Rules[1])
	}
	s := cfg.Rules[2]
	if s.Point != PointShardTear || s.Prob != 0.1 || s.Bytes != 20 {
		t.Fatalf("shardtear rule = %+v", s)
	}
	if _, err := Parse("workerkill:rep=yes!"); err == nil {
		t.Fatal("bad rep value accepted")
	}
}
