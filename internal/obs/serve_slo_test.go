package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeSLOAndIncidentEndpoints drives an observer the way the serving
// layer does — an SLO monitor published as the "slo" view, a heal on the
// incident timeline, an ack-lag histogram — and asserts the documents
// /slo, /incidents (JSON and Chrome) and the Prometheus histogram export
// serve over HTTP.
func TestServeSLOAndIncidentEndpoints(t *testing.T) {
	o := NewObserver(1, 16)
	slo := NewSLOMonitor(SLOConfig{Name: "ack", Objective: 100 * time.Millisecond, Timeline: o.Timeline()})
	slo.Observe(2 * time.Millisecond)
	slo.Observe(250 * time.Millisecond)
	o.SetView("slo", func() any { return slo.Snapshot() })
	o.Timeline().Add("supervisor", "heal-begin", "shard 1 io-fatal", map[string]any{"shard": 1})
	o.Timeline().Add("supervisor", "heal-end", "shard 1 live", nil)
	o.Reg.Histogram("serve.ack_lag_seconds").Observe(0.002)

	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap SLOSnapshot
	if err := json.Unmarshal(get("/slo"), &snap); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	if snap.Name != "ack" || len(snap.Windows) < 1 || snap.Total != 2 || snap.Bad != 1 {
		t.Errorf("/slo = %+v, want name ack, >= 1 window, 2 observed, 1 bad", snap)
	}

	var inc struct {
		Events    []TimelineEvent `json:"events"`
		Incidents []Incident      `json:"incidents"`
	}
	if err := json.Unmarshal(get("/incidents"), &inc); err != nil {
		t.Fatalf("/incidents not JSON: %v", err)
	}
	// The slow ack blew the burn-rate threshold, so the monitor's breach edge
	// precedes the heal pair on the same timeline.
	var kinds []string
	for _, ev := range inc.Events {
		kinds = append(kinds, ev.Source+"/"+ev.Kind)
	}
	if got, want := strings.Join(kinds, " "), "slo/breach-begin supervisor/heal-begin supervisor/heal-end"; got != want {
		t.Errorf("/incidents events = %q, want %q", got, want)
	}
	if len(inc.Incidents) == 0 {
		t.Error("/incidents reconstructed no incident from a breach and a heal")
	}

	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/incidents?format=chrome"), &chrome); err != nil {
		t.Fatalf("/incidents?format=chrome not JSON: %v", err)
	}
	if len(chrome.TraceEvents) < len(inc.Events) {
		t.Errorf("chrome export has %d events for %d timeline events", len(chrome.TraceEvents), len(inc.Events))
	}

	prom := string(get("/metrics?format=prom"))
	for _, want := range []string{`serve_ack_lag_seconds_bucket{le="`, `serve_ack_lag_seconds_bucket{le="+Inf"} 1`} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom export missing %q:\n%s", want, prom)
		}
	}
}
