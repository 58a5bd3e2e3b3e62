package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	o := &Observer{Metrics: NewRegistry()}
	o.Metrics.Counter("campaign_faults_done_total", "done").Add(3)
	camp := o.StartCampaign("stuckat c95s", 10)
	camp.faultDone(FlightLabelExact)
	camp.faultDone(FlightLabelApproximate)

	srv := httptest.NewServer(NewMux(o))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "campaign_faults_done_total 3") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if !strings.Contains(body, "# TYPE campaign_faults_done_total counter") {
		t.Fatal("/metrics is not Prometheus text format")
	}

	code, body = get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: code %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if len(snap.Campaigns) != 1 {
		t.Fatalf("progress has %d campaigns, want 1", len(snap.Campaigns))
	}
	c := snap.Campaigns[0]
	if c.Name != "stuckat c95s" || c.Total != 10 || c.Done != 2 || c.Exact != 1 || c.Degraded != 1 {
		t.Fatalf("heartbeat %+v", c)
	}
	if c.Finished {
		t.Fatal("campaign reported finished while running")
	}

	// pprof index must answer — the profile endpoints hang off the same mux.
	code, body = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
	if code, _ = get(t, srv, "/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars: code %d", code)
	}
	if code, _ = get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d, want 404", code)
	}
}

// TestDebugServerNilObserver: the server must stay up (empty bodies)
// when no observer subsystems are configured.
func TestDebugServerNilObserver(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil))
	defer srv.Close()
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics on nil observer: code %d", code)
	}
	code, body := get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress on nil observer: code %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || len(snap.Campaigns) != 0 {
		t.Fatalf("nil observer progress: %v %q", err, body)
	}
}

func TestServeAndClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server /progress: code %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
