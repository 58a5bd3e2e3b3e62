package obs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(FlightFaultDone, FlightLabelExact, i%4, i, int64(i*10), int64(i))
	}
	total, dropped := r.Total()
	if total != 20 || dropped != 12 {
		t.Fatalf("Total() = (%d, %d), want (20, 12)", total, dropped)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("Snapshot() kept %d events, want ring capacity 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(12 + i) // oldest surviving event first
		if ev.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Index != 12+i || ev.A != int64((12+i)*10) {
			t.Errorf("event %d: payload {i:%d a:%d}, want {i:%d a:%d}", i, ev.Index, ev.A, 12+i, (12+i)*10)
		}
		if ev.Kind != "fault" || ev.Label != "exact" {
			t.Errorf("event %d: kind/label %q/%q, want fault/exact", i, ev.Kind, ev.Label)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightGC, FlightLabelNone, 0, 0, 1, 2) // must not panic
	if total, dropped := r.Total(); total != 0 || dropped != 0 {
		t.Fatalf("nil Total() = (%d, %d), want zeros", total, dropped)
	}
	if evs := r.Snapshot(); evs != nil {
		t.Fatalf("nil Snapshot() = %v, want nil", evs)
	}
	var o *Observer
	if d := o.BuildFlightDump("x", "y"); d != nil {
		t.Fatalf("nil BuildFlightDump() = %v, want nil", d)
	}
	if ok, err := o.WriteFlightDump("/nonexistent/x", "x", "y"); ok || err != nil {
		t.Fatalf("nil WriteFlightDump() = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestFlightKindLabelNameRoundTrip(t *testing.T) {
	for l := FlightLabelNone; l <= FlightLabelCanceled; l++ {
		if got := FlightLabelByName(FlightLabelName(l)); got != l {
			t.Errorf("label %d: round trip via %q gave %d", l, FlightLabelName(l), got)
		}
	}
}

func TestFlightDumpWriteReadRoundTrip(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Flight: NewFlightRecorder(64)}
	o.Flight.Record(FlightCampaignStart, FlightLabelNone, -1, -1, 10, 0)
	for i := 0; i < 10; i++ {
		o.Flight.Record(FlightFaultDone, FlightLabelExact, i%2, i, 100, 50)
		o.CampaignMetrics().FaultLatency.Observe(0.0001)
	}
	o.Flight.Record(FlightCampaignFinish, FlightLabelOK, -1, -1, 10, 0)

	path := filepath.Join(t.TempDir(), "run.flight.json")
	ok, err := o.WriteFlightDump(path, "test", "completed")
	if err != nil || !ok {
		t.Fatalf("WriteFlightDump = (%v, %v)", ok, err)
	}
	d, err := ReadFlightDump(path)
	if err != nil {
		t.Fatalf("ReadFlightDump: %v", err)
	}
	if d.Version != FlightDumpVersion || d.Program != "test" || d.Reason != "completed" {
		t.Fatalf("header = %+v", d)
	}
	if d.EventsTotal != 12 || d.EventsDropped != 0 || len(d.Events) != 12 {
		t.Fatalf("events: total %d dropped %d len %d, want 12/0/12", d.EventsTotal, d.EventsDropped, len(d.Events))
	}
	if d.FaultLatency == nil || d.FaultLatency.Count != 10 {
		t.Fatalf("FaultLatency = %+v, want 10 samples", d.FaultLatency)
	}
	if d.Events[0].Kind != "campaign_start" || d.Events[11].Kind != "campaign_finish" {
		t.Fatalf("event order: first %q last %q", d.Events[0].Kind, d.Events[11].Kind)
	}
}

func TestReadFlightDumpRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.flight.json")
	if err := os.WriteFile(path, []byte(`{"version": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightDump(path); err == nil {
		t.Fatal("ReadFlightDump accepted an unknown version")
	}
}

func TestFlightRecorderConcurrentRecord(t *testing.T) {
	r := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(FlightFaultDone, FlightLabelExact, w, i, 1, 2)
			}
		}(w)
	}
	wg.Wait()
	total, dropped := r.Total()
	if total != 800 || dropped != 800-128 {
		t.Fatalf("Total() = (%d, %d), want (800, %d)", total, dropped, 800-128)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
