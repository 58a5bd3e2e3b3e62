package analysis

import (
	"context"
	"math"
	"reflect"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/faults"
)

func TestParseMemLimit(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"off", -1, false},
		{"OFF", -1, false},
		{"12345", 12345, false},
		{"64B", 64, false},
		{"4KiB", 4 << 10, false},
		{"512MiB", 512 << 20, false},
		{"2GiB", 2 << 30, false},
		{"1TiB", 1 << 40, false},
		{" 512MiB ", 512 << 20, false},
		{"-1", 0, true},
		{"12MB", 0, true},
		{"abc", 0, true},
		{"9999999999TiB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMemLimit(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMemLimit(%q) error = %v, want error=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMemLimit(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEffectiveMemLimit(t *testing.T) {
	if got := effectiveMemLimit(1 << 30); got != 1<<30 {
		t.Fatalf("explicit limit = %d", got)
	}
	if got := effectiveMemLimit(-1); got != 0 {
		t.Fatalf("negative limit must disable, got %d", got)
	}
	// Zero defers to GOMEMLIMIT; the test binary normally runs without one,
	// in which case the governor stays off. Either way the result must be
	// a valid ceiling, never MaxInt64.
	if got := effectiveMemLimit(0); got == math.MaxInt64 {
		t.Fatal("MaxInt64 sentinel leaked through")
	}
	// Under a process memory limit, zero adopts it while -memlimit off
	// still disables the governor.
	const processLimit = 1 << 40
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(processLimit))
	off, err := ParseMemLimit("off")
	if err != nil {
		t.Fatal(err)
	}
	if got := effectiveMemLimit(off); got != 0 {
		t.Fatalf("-memlimit off under a process limit = %d, want 0 (disabled)", got)
	}
	if got := effectiveMemLimit(0); got != processLimit {
		t.Fatalf("zero limit under a process limit = %d, want %d", got, processLimit)
	}
}

func TestGovernorDisabledCases(t *testing.T) {
	if g := newGovernor(CampaignConfig{MemLimit: -1}, 8, nil); g != nil {
		t.Fatal("governor built with limit disabled")
	}
	if g := newGovernor(CampaignConfig{MemLimit: 1 << 30}, 1, nil); g != nil {
		t.Fatal("governor built with a single worker (nobody to park)")
	}
	// A nil governor must accept every call.
	var g *governor
	g.admit(3, nil, func() bool { return false })
	g.release()
	g.stop()
	if pe, mp := g.counters(); pe != 0 || mp != 0 {
		t.Fatal("nil governor reported counters")
	}
}

// TestGovernorParksUnderPressure pins the park behavior with an injected
// sampler that always reports a heap over the high watermark: every worker
// except worker 0 parks, the campaign still completes (on worker 0 alone —
// the progress guarantee), the park counters surface in CampaignStats, and
// the records are identical to an ungoverned run.
func TestGovernorParksUnderPressure(t *testing.T) {
	// Workers are admitted between guided-size claims, so a worker other
	// than 0 can park only if it comes back for another claim before the
	// fault set drains. On a few expensive faults of skewed cost, worker 0
	// sometimes drains the set while the others are still inside their
	// first blocks; many cheap faults of even cost always bring them back.
	c := circuits.MustGet("c95s")
	var fs []faults.StuckAt
	for i := 0; i < 20; i++ {
		fs = append(fs, faults.CheckpointStuckAts(c.Decompose2())...)
	}
	reference, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	cfg := CampaignConfig{
		Workers:   4,
		MemLimit:  1 << 30,
		MemPoll:   time.Millisecond,
		memSample: func() int64 { return 1 << 40 }, // always far over the ceiling
	}
	governed, err := RunStuckAtCampaign(c, nil, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if governed.Stats.MemParkEvents == 0 {
		t.Fatal("permanent pressure parked nobody")
	}
	if governed.Stats.MaxParked > cfg.Workers-1 {
		t.Fatalf("MaxParked = %d with %d workers; worker 0 must never park",
			governed.Stats.MaxParked, cfg.Workers)
	}
	if governed.Stats.Canceled || governed.Stats.Faults != len(fs) {
		t.Fatalf("governed campaign did not complete: %+v", governed.Stats)
	}
	if !reflect.DeepEqual(stripStatsSA(governed), stripStatsSA(reference)) {
		t.Fatal("parking changed campaign results")
	}
}

// TestGovernorUnparksWhenPressureRecedes flips the injected sampler from
// over-the-ceiling to well-under after a few ticks: parked workers must
// resume and the campaign must finish with all records intact.
func TestGovernorUnparksWhenPressureRecedes(t *testing.T) {
	c := circuits.MustGet("c499s")
	fs := faults.CheckpointStuckAts(c.Decompose2())

	var samples atomic.Int64
	cfg := CampaignConfig{
		Workers:  4,
		MemLimit: 1 << 30,
		MemPoll:  time.Millisecond,
		memSample: func() int64 {
			if samples.Add(1) <= 10 {
				return 1 << 40 // pressure for the first ~10ms
			}
			return 1 // then fully recovered
		},
	}
	governed, err := RunStuckAtCampaign(c, nil, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if governed.Stats.Canceled || governed.Stats.Faults != len(fs) {
		t.Fatalf("campaign did not complete after pressure receded: %+v", governed.Stats)
	}
	for i, r := range governed.Records {
		if r.Skipped || r.Err != "" {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

// TestGovernorCancellationWhileParked cancels the campaign while workers
// are held parked under permanent pressure: the campaign must drain out
// promptly instead of deadlocking on the park gate.
func TestGovernorCancellationWhileParked(t *testing.T) {
	c := circuits.MustGet("c499s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	ctx, cancel := context.WithCancel(context.Background())
	var sampled atomic.Bool
	cfg := CampaignConfig{
		Workers:  4,
		Context:  ctx,
		MemLimit: 1 << 30,
		MemPoll:  time.Millisecond,
		memSample: func() int64 {
			sampled.Store(true)
			return 1 << 40
		},
	}
	go func() {
		// Give the monitor time to raise pressure and park workers, then
		// cancel mid-campaign.
		for !sampled.Load() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var study StuckAtStudy
	var err error
	go func() {
		study, err = RunStuckAtCampaign(c, nil, fs, cfg)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign deadlocked with workers parked after cancellation")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !study.Stats.Canceled {
		t.Fatal("Canceled not set")
	}
}
