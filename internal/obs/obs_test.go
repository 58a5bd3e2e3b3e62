package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestCampaignHeartbeatLifecycle(t *testing.T) {
	o := &Observer{}
	c := o.StartCampaign("stuckat c95s", 100)
	c.addResumed(10)
	for i := 0; i < 60; i++ {
		c.faultDone(FlightLabelExact)
	}
	for i := 0; i < 5; i++ {
		c.faultDone(FlightLabelApproximate)
	}
	c.faultDone(FlightLabelError)

	s := c.Snapshot()
	if s.Done != 76 || s.Analyzed != 66 || s.Exact != 60 || s.Degraded != 5 || s.Errored != 1 || s.Resumed != 10 {
		t.Fatalf("mid-campaign snapshot %+v", s)
	}
	if s.Finished || s.Canceled || s.Skipped != 0 {
		t.Fatalf("snapshot finished early: %+v", s)
	}

	c.finish(true)
	s = c.Snapshot()
	if !s.Finished || !s.Canceled {
		t.Fatalf("finish not recorded: %+v", s)
	}
	if s.Skipped != 24 { // 100 total − 76 done
		t.Fatalf("skipped = %d, want 24", s.Skipped)
	}
	if s.ETASec != 0 {
		t.Fatalf("finished campaign still projects ETA %f", s.ETASec)
	}
	if s.Done+s.Skipped != s.Total {
		t.Fatalf("done %d + skipped %d != total %d", s.Done, s.Skipped, s.Total)
	}
}

func TestCampaignConcurrentFaultDone(t *testing.T) {
	o := &Observer{}
	c := o.StartCampaign("x", 4*250)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				c.faultDone(FlightLabelExact)
			}
		}()
	}
	wg.Wait()
	c.finish(false)
	s := c.Snapshot()
	if s.Done != 1000 || s.Exact != 1000 || s.Skipped != 0 {
		t.Fatalf("concurrent heartbeat lost updates: %+v", s)
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.Logger() == nil {
		t.Fatal("nil observer Logger() must not be nil")
	}
	o.Logger().Info("discarded")
	c := o.StartCampaign("x", 5)
	if c != nil {
		t.Fatal("nil observer must hand out a nil campaign")
	}
	c.Emit(Event{Kind: FlightFaultDone, Label: FlightLabelExact})
	c.AddWork(FaultWork{GatesVisited: 3})
	if s := c.Snapshot(); s != (CampaignSnapshot{}) {
		t.Fatalf("nil campaign snapshot = %+v, want zero", s)
	}
	if got := o.Progress(); len(got.Campaigns) != 0 {
		t.Fatalf("nil observer progress %+v", got)
	}
	cm := o.CampaignMetrics()
	if cm == nil {
		t.Fatal("CampaignMetrics must never return nil")
	}
	cm.FaultsDone.Inc()
	cm.FaultLatency.Observe(0.1)
	cm.BDDPeakNodes.SetMax(100)
	o.Emit(Event{Kind: FlightChaos})
}

func TestCampaignMetricsRegisteredOnce(t *testing.T) {
	o := &Observer{Metrics: NewRegistry()}
	a := o.CampaignMetrics()
	b := o.CampaignMetrics()
	if a != b {
		t.Fatal("CampaignMetrics must be registered once per observer")
	}
	a.FaultsDone.Inc()
	if b.FaultsDone.Value() != 1 {
		t.Fatal("metric handles differ across CampaignMetrics calls")
	}
	o.StartCampaign("x", 1)
	if a.CampaignsRunning.Value() != 1 {
		t.Fatalf("campaigns_running = %d, want 1", a.CampaignsRunning.Value())
	}
	var buf strings.Builder
	if err := o.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bdd_cache_hit_ratio 0") {
		t.Fatal("cache hit ratio gauge func missing from exposition")
	}
}

// TestOutcomeString pins the outcome labels' wire names: fault events,
// trace spans and post-mortem outcome tables all spell outcomes this way.
func TestOutcomeString(t *testing.T) {
	for l, want := range map[uint8]string{
		FlightLabelExact:       "exact",
		FlightLabelRescued:     "rescued",
		FlightLabelApproximate: "approximate",
		FlightLabelError:       "error",
	} {
		if got := FlightLabelName(l); got != want {
			t.Fatalf("FlightLabelName(%d) = %q, want %q", l, got, want)
		}
	}
}

func TestNopLoggerAllocFree(t *testing.T) {
	log := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		log.Debug("skipped", "fault", 7, "ops", 12345)
	})
	if allocs != 0 {
		t.Fatalf("nop logger allocated %.1f times per disabled log call, want 0", allocs)
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("bad level must error")
	}
	lv, err := ParseLevel("warn")
	if err != nil || lv != slog.LevelWarn {
		t.Fatalf("ParseLevel(warn) = %v, %v", lv, err)
	}
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo, true)
	log.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Fatalf("json logger output %q", buf.String())
	}
	log.Debug("below level")
	if strings.Contains(buf.String(), "below level") {
		t.Fatal("level filtering broken")
	}
}
