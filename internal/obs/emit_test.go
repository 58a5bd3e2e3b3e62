package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

// TestEmitAllocFree pins the emitter's hot-path cost: every kind, emitted
// on a nil observer or campaign, or on ones with a flight ring and a
// registry but no logger, makes no allocation.
func TestEmitAllocFree(t *testing.T) {
	var nilObs *Observer
	var nilCamp *Campaign
	o := &Observer{Flight: NewFlightRecorder(64), Metrics: NewRegistry()}
	c := o.StartCampaign("x", 1)
	emitters := map[string]func(Event){
		"nil observer": nilObs.Emit,
		"nil campaign": nilCamp.Emit,
		"observer":     o.Emit,
		"campaign":     c.Emit,
	}
	for k := FlightKind(0); k < flightKindCount; k++ {
		ev := Event{Kind: k, Label: FlightLabelApproximate, Worker: 1, Index: 2, A: 3, B: 4}
		for name, emit := range emitters {
			if n := testing.AllocsPerRun(100, func() { emit(ev) }); n != 0 {
				t.Errorf("%s: Emit(%s) allocated %.1f times, want 0", name, k, n)
			}
		}
	}
}

// TestEmitFeedsEverySink emits one degraded fault on a campaign and finds
// it in each channel the fault kind's row names: the flight ring, the
// outcome counters and latency histogram, the heartbeat, and one warning
// log line naming the campaign.
func TestEmitFeedsEverySink(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{
		Log:     NewLogger(&buf, slog.LevelInfo, false),
		Metrics: NewRegistry(),
		Flight:  NewFlightRecorder(16),
	}
	c := o.StartCampaign("stuckat c17", 3)
	c.Emit(Event{Kind: FlightFaultDone, Label: FlightLabelApproximate, Worker: 1, Index: 2, A: 1500, B: 99})

	evs := o.Flight.Snapshot()
	if len(evs) != 2 || evs[1] != (FlightEvent{Seq: 1, TUS: evs[1].TUS, Kind: "fault", Worker: 1, Index: 2, Label: "approximate", A: 1500, B: 99}) {
		t.Fatalf("flight events %+v", evs)
	}
	cm := o.CampaignMetrics()
	if cm.FaultsDone.Value() != 1 || cm.FaultsDegraded.Value() != 1 || cm.FaultsExact.Value() != 0 ||
		cm.FaultLatency.Count() != 1 || cm.CampaignsRunning.Value() != 1 {
		t.Fatalf("metrics done=%d degraded=%d exact=%d latency=%d running=%d", cm.FaultsDone.Value(),
			cm.FaultsDegraded.Value(), cm.FaultsExact.Value(), cm.FaultLatency.Count(), cm.CampaignsRunning.Value())
	}
	if s := c.Snapshot(); s.Done != 1 || s.Degraded != 1 {
		t.Fatalf("heartbeat %+v", s)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "level=WARN msg=\"fault done\" campaign=\"stuckat c17\" worker=1 index=2 outcome=approximate us=1500 ops=99") {
		t.Fatalf("log output %q, want one warning for the degraded fault (campaign start logs at debug)", out)
	}
}
