package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTimelineSamplesCampaignGauges(t *testing.T) {
	o := &Observer{Metrics: NewRegistry()}
	cm := o.CampaignMetrics()
	cm.BDDNodes.Set(5000)
	cm.BDDTableBuckets.Set(10000)
	cm.GatesVisited.Add(300)
	cm.CalibrationBudgetOps.Set(123456)
	cm.FaultsDone.Add(42)
	cm.CacheHits.Add(900)
	cm.CacheMisses.Add(100)

	tl := o.StartTimeline(time.Millisecond, 16)
	if tl == nil {
		t.Fatal("StartTimeline returned nil")
	}
	if o.StartTimeline(time.Millisecond, 16) != tl {
		t.Fatal("StartTimeline is not idempotent")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(tl.Snapshot()) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	tl.Stop()
	tl.Stop() // idempotent

	samples := tl.Snapshot()
	if len(samples) < 3 {
		t.Fatalf("sampler produced %d samples, want >= 3", len(samples))
	}
	last := samples[len(samples)-1]
	if last.BDDNodes != 5000 || last.GatesVisited != 300 || last.CalibrationBudgetOps != 123456 || last.FaultsDone != 42 {
		t.Fatalf("last sample = %+v, gauges not reflected", last)
	}
	if last.TableLoad < 0.49 || last.TableLoad > 0.51 {
		t.Fatalf("TableLoad = %v, want 5000/10000 = 0.5", last.TableLoad)
	}
	if last.HeapBytes == 0 {
		t.Fatal("HeapBytes not sampled")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TUS < samples[i-1].TUS {
			t.Fatalf("samples not time-ordered at %d", i)
		}
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Stop()
	if s := tl.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot() = %v", s)
	}
	var o *Observer
	if o.StartTimeline(0, 0) != nil {
		t.Fatal("nil observer StartTimeline should return nil")
	}
	if o.Timeline() != nil {
		t.Fatal("nil observer Timeline should return nil")
	}
}

func TestTimelineEndpoint(t *testing.T) {
	o := &Observer{Metrics: NewRegistry()}
	o.CampaignMetrics().BDDNodes.Set(77)
	tl := o.StartTimeline(time.Millisecond, 8)
	deadline := time.Now().Add(2 * time.Second)
	for len(tl.Snapshot()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	tl.Stop()

	srv := httptest.NewServer(NewMux(o))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /timeline: %s", resp.Status)
	}
	var body struct {
		Samples []TimelineSample `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /timeline: %v", err)
	}
	if len(body.Samples) == 0 {
		t.Fatal("/timeline returned no samples")
	}
	if body.Samples[len(body.Samples)-1].BDDNodes != 77 {
		t.Fatalf("last sample = %+v, want BDDNodes 77", body.Samples[len(body.Samples)-1])
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	s := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{2, 2, 4, 0},
		Count:  8,
	}
	cases := []struct{ q, want float64 }{
		{0.125, 0.5}, // rank 1 of 2 in [0,1)
		{0.25, 1.0},  // exactly the first bucket's upper bound
		{0.5, 2.0},   // exactly the second bucket's upper bound
		{0.75, 3.0},  // rank 6: halfway through [2,4)
		{1.0, 4.0},
		{0, 0},
		{-1, 0},  // clamped
		{2, 4.0}, // clamped
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	inf := HistogramSnapshot{Bounds: []float64{1, 2, 4}, Counts: []int64{0, 0, 0, 5}, Count: 5}
	if got := inf.Quantile(0.5); got != 4 {
		t.Errorf("+Inf-bucket Quantile(0.5) = %v, want last finite bound 4", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}
}

// TestSnapshotETAUsesRecentRate pins the ETA-skew fix: a campaign whose
// first half crawled must project from the sliding window of recent
// completions, not the whole-run average.
func TestSnapshotETAUsesRecentRate(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clock := base
	c := &Campaign{name: "eta", total: 200, start: base, now: func() time.Time { return clock }}

	// 100 faults over 10000s: whole-run average of 0.01 faults/s.
	for i := 0; i < 100; i++ {
		clock = base.Add(time.Duration(i+1) * 100 * time.Second)
		c.faultDone(FlightLabelExact)
	}
	// Then 64 faults at 1/s: the window now only sees the fast regime.
	for i := 0; i < 64; i++ {
		clock = clock.Add(time.Second)
		c.faultDone(FlightLabelExact)
	}

	s := c.Snapshot()
	if s.Done != 164 {
		t.Fatalf("Done = %d, want 164", s.Done)
	}
	// 36 faults remain. Whole-run average (~0.0163/s) would project
	// ~2208s; the 64-wide window spans 63s → ~1.016/s → ~35.4s.
	if s.ETASec > 120 {
		t.Fatalf("ETASec = %.0f, still skewed by the slow start (want < 120s)", s.ETASec)
	}
	if s.ETASec < 20 {
		t.Fatalf("ETASec = %.0f, implausibly low", s.ETASec)
	}

	// Finish freezes the elapsed time on the same clock: 10000s + 64s
	// after the fake start, not the real time since it.
	c.finish(false)
	clock = clock.Add(time.Hour)
	if s := c.Snapshot(); s.ElapsedSec != 10064 {
		t.Fatalf("finished ElapsedSec = %v, want 10064 on the campaign clock", s.ElapsedSec)
	}

	// Until the window has two entries the projection falls back to the
	// whole-run average instead of dividing by a zero span.
	c2 := &Campaign{name: "eta2", total: 10, start: base, now: func() time.Time { return clock }}
	clock = base.Add(2 * time.Second)
	c2.faultDone(FlightLabelExact)
	if s2 := c2.Snapshot(); s2.ETASec <= 0 {
		t.Fatalf("single-completion ETASec = %v, want whole-run fallback > 0", s2.ETASec)
	}
}
