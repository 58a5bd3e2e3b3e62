package analysis

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/postmortem"
)

// TestCampaignFlightEvents runs 4-worker campaigns with every channel
// attached — clean, resumed, canceled, chaos-rescued and budget-degraded —
// and rebuilds each campaign's outcome counts from the flight ring alone
// (the post-mortem's outcome table plus the resume and chaos events).
// They must equal the returned CampaignStats, the heartbeat and the metric
// counters, because all of them derive from one emitted event stream. The
// ring must also hold one start, one finish, one worker_start and drain
// per worker, and exactly one fault event per analyzed fault.
func TestCampaignFlightEvents(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	first, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resume := map[int]json.RawMessage{}
	for i := 0; i < 5; i++ {
		if resume[i], err = json.Marshal(first.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	storm, err := chaos.Parse("budget:p=0.35")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cfg    CampaignConfig
		cancel bool // cancel once a third of the faults are done
		want   func(s CampaignStats) bool
	}{
		{"clean", CampaignConfig{}, false, func(s CampaignStats) bool { return s.Faults == len(fs) }},
		{"resume", CampaignConfig{Resume: resume}, false, func(s CampaignStats) bool { return s.Resumed == 5 }},
		{"cancel", CampaignConfig{}, true, func(s CampaignStats) bool { return s.Canceled && s.Faults < len(fs) }},
		{"chaos-rescued", CampaignConfig{Chaos: storm, FaultOps: 50_000_000, Recovery: diffprop.Recovery{RetryMultiplier: 16}}, false,
			func(s CampaignStats) bool { return s.Rescued > 0 && s.ChaosInjected > 0 }},
		{"budget-degraded", CampaignConfig{FaultOps: 1}, false, func(s CampaignStats) bool { return s.Degraded > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(len(fs)*8 + 256)}
			cfg := tc.cfg
			cfg.Workers, cfg.Obs = 4, o
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg.Context = ctx
				cfg.Progress = func(done, total int) {
					if done >= total/3 {
						cancel()
					}
				}
			}
			study, err := RunStuckAtCampaign(c, nil, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := study.Stats
			if !tc.want(st) {
				t.Fatalf("case precondition failed: %+v", st)
			}

			dump := o.BuildFlightDump("test", "completed")
			if dump.EventsDropped != 0 {
				t.Fatalf("ring wrapped (%d dropped); size the ring for the fault set", dump.EventsDropped)
			}
			rep, err := postmortem.Analyze([]*obs.FlightDump{dump}, postmortem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]int{}
			seen := map[int]bool{}
			var resumed int64
			for _, ev := range dump.Events {
				kinds[ev.Kind]++
				switch ev.Kind {
				case "fault":
					if seen[ev.Index] {
						t.Fatalf("fault #%d recorded twice", ev.Index)
					}
					seen[ev.Index] = true
					if ev.Worker < 0 || ev.Worker >= 4 {
						t.Fatalf("fault #%d attributed to worker %d", ev.Index, ev.Worker)
					}
				case "resume":
					resumed += ev.A
				case "campaign_start":
					if ev.A != int64(len(fs)) {
						t.Fatalf("campaign_start total = %d, want %d", ev.A, len(fs))
					}
				case "campaign_finish":
					want := "ok"
					if st.Canceled {
						want = "canceled"
					}
					if ev.Label != want || ev.A != int64(st.Faults) {
						t.Fatalf("campaign_finish = %+v, want %s with a=%d", ev, want, st.Faults)
					}
				}
			}
			if kinds["campaign_start"] != 1 || kinds["campaign_finish"] != 1 {
				t.Fatalf("start/finish = %d/%d, want 1/1", kinds["campaign_start"], kinds["campaign_finish"])
			}
			if kinds["worker_start"] != 4 || kinds["drain"] != 4 || kinds["claim"] == 0 {
				t.Fatalf("worker_start/drain/claim = %d/%d/%d, want 4/4/>0", kinds["worker_start"], kinds["drain"], kinds["claim"])
			}

			faultsSeen := 0
			for _, n := range rep.Outcomes {
				faultsSeen += n
			}
			fromRing := CampaignStats{
				Faults:        faultsSeen,
				Degraded:      rep.Outcomes["approximate"],
				Errored:       rep.Outcomes["error"],
				Rescued:       rep.Outcomes["rescued"],
				Resumed:       int(resumed),
				ChaosInjected: int64(rep.ChaosInjected),
			}
			live := CampaignStats{
				Faults:        st.Faults,
				Degraded:      st.Degraded,
				Errored:       st.Errored,
				Rescued:       st.Rescued,
				Resumed:       st.Resumed,
				ChaosInjected: st.ChaosInjected,
			}
			if fromRing != live || len(seen) != st.Faults {
				t.Fatalf("flight ring rebuilds %+v (%d distinct faults), stats say %+v", fromRing, len(seen), live)
			}

			exact := int64(st.Faults - st.Degraded - st.Errored)
			skipped := int64(len(fs) - st.Faults - st.Resumed)
			hb := o.Campaigns()[0].Snapshot()
			if !hb.Finished || hb.Canceled != st.Canceled || hb.Analyzed != int64(st.Faults) || hb.Exact != exact ||
				hb.Degraded != int64(st.Degraded) || hb.Errored != int64(st.Errored) || hb.Rescued != int64(st.Rescued) ||
				hb.Resumed != int64(st.Resumed) || hb.Skipped != skipped ||
				hb.GatesVisited != st.GatesVisited || hb.GatesSkipped != st.GatesSkipped {
				t.Fatalf("heartbeat %+v does not reconcile with stats %+v", hb, st)
			}

			cm := o.CampaignMetrics()
			for _, m := range []struct {
				name      string
				got, want int64
			}{
				{"campaign_faults_done_total", cm.FaultsDone.Value(), int64(st.Faults + st.Resumed)},
				{"campaign_faults_exact_total", cm.FaultsExact.Value(), exact},
				{"campaign_faults_degraded_total", cm.FaultsDegraded.Value(), int64(st.Degraded)},
				{"campaign_faults_errored_total", cm.FaultsErrored.Value(), int64(st.Errored)},
				{"campaign_faults_rescued_total", cm.FaultsRescued.Value(), int64(st.Rescued)},
				{"campaign_faults_resumed_total", cm.FaultsResumed.Value(), int64(st.Resumed)},
				{"campaign_faults_skipped_total", cm.FaultsSkipped.Value(), skipped},
				{"campaign_fault_latency_seconds count", cm.FaultLatency.Count(), int64(st.Faults)},
				{"chaos_injected_total", cm.ChaosInjected.Value(), st.ChaosInjected},
				{"recovery_retries_total", cm.RecoveryRetries.Value(), int64(st.Retried)},
				{"bdd_rebuilds_total", cm.BDDRebuilds.Value(), int64(st.Rebuilds)},
				{"recovery_nodes_reclaimed_total", cm.RecoveryNodesReclaimed.Value(), st.NodesReclaimed},
				{"campaign_gate_evaluations_total", cm.GateEvaluations.Value(), st.GateEvaluations},
				{"campaign_gates_visited_total", cm.GatesVisited.Value(), st.GatesVisited},
				{"campaign_gates_skipped_total", cm.GatesSkipped.Value(), st.GatesSkipped},
				{"campaigns_running", cm.CampaignsRunning.Value(), 0},
			} {
				if m.got != m.want {
					t.Errorf("%s = %d, want %d (stats %+v)", m.name, m.got, m.want, st)
				}
			}
		})
	}
}

// TestDebugServerConcurrentScrapes hammers /metrics and /timeline from
// multiple goroutines while a live 4-worker campaign mutates every gauge
// they read — the -race build is the actual assertion.
func TestDebugServerConcurrentScrapes(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	o := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Flight:  obs.NewFlightRecorder(0),
	}
	tl := o.StartTimeline(0, 0) // default period: samples at least once at Stop
	srv := httptest.NewServer(obs.NewMux(o))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		path := "/metrics"
		if i%2 == 1 {
			path = "/timeline"
		}
		go func(path string) {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					return // server closing down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4, Obs: o})
	cancel()
	wg.Wait()
	tl.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Faults != len(fs) {
		t.Fatalf("campaign analyzed %d/%d faults", study.Stats.Faults, len(fs))
	}
	if len(tl.Snapshot()) == 0 {
		t.Fatal("timeline sampler took no samples")
	}
}
