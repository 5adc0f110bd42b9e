package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/obs"
)

// TestMetricsOneFormat pins that /metrics serves the Prometheus
// exposition to every request: the query string and the Accept header
// select nothing, so a scraper that does not advertise 0.0.4 (curl, an
// OpenMetrics-only Prometheus) still gets text it can parse.
func TestMetricsOneFormat(t *testing.T) {
	m := NewManager(Config{Role: "node", Node: "t0"})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	for _, tc := range []struct {
		name, path, accept string
	}{
		{"plain", "/metrics", ""},
		{"format=json", "/metrics?format=json", ""},
		{"format=prom", "/metrics?format=prom", ""},
		{"accept 0.0.4", "/metrics", "text/plain; version=0.0.4"},
		{"accept openmetrics", "/metrics", "application/openmetrics-text; version=1.0.0; charset=utf-8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
			}
			if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
				t.Errorf("content type %q, want %q", ct, obs.PromContentType)
			}
			text := buf.String()
			for _, want := range []string{
				"# TYPE ice_service_cache_hits_total counter",
				`ice_service_cache_hits_total{role="node",node="t0"}`,
				"# TYPE ice_process_uptime_seconds gauge",
				"# TYPE ice_process_gc_pause_us histogram",
				"# TYPE ice_harness_cell_us histogram",
				`ice_service_http_requests_total{role="node",node="t0",route="metrics"}`,
			} {
				if !strings.Contains(text, want) {
					t.Errorf("exposition missing %q", want)
				}
			}
			if _, err := obs.ParseProm(strings.NewReader(text)); err != nil {
				t.Errorf("exposition does not parse: %v", err)
			}
		})
	}
}

// TestHealthz pins the enriched health payload fields.
func TestHealthz(t *testing.T) {
	m := NewManager(Config{Role: "worker", Node: "w7", Peers: []string{"a:1", "b:2"}, WorkerEndpoint: true})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	for _, want := range []string{`"ok": true`, `"role": "worker"`, `"node": "w7"`, `"version"`, `"uptime_seconds"`, `"peers": 2`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz missing %s: %s", want, body)
		}
	}
}

// TestPromAfterJob runs a real job and asserts the daemon-side series
// the run should have produced: harness.cell_us observations and the
// folded sim.* aggregation, all exporting cleanly.
func TestPromAfterJob(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 2, Role: "node", Node: "t1"})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	view := postJob(t, ts.URL, tinySpec())
	final := waitTerminal(t, ts.URL, view.ID)
	if final.State != StateDone {
		t.Fatalf("job: %+v", final)
	}

	snap := m.Metrics()
	if cell, ok := snap.Hist("harness.cell_us"); !ok || cell.Count == 0 {
		t.Errorf("harness.cell_us not recorded: %+v ok=%v", cell, ok)
	}
	// Presence, not level: a short scenario may legitimately record
	// zeroes, but the folded series must exist.
	if _, ok := snap.Counter("sim.mm.reclaim.pages"); !ok {
		t.Error("sim.mm.reclaim.pages not folded")
	}
	if _, ok := snap.Hist("sim.frame.latency_us"); !ok {
		t.Error("sim.frame.latency_us not folded")
	}
	if _, ok := snap.Counter("sim.zram.stores.base"); !ok {
		t.Error("per-codec zram store counter not folded")
	}

	// The whole post-job registry must lint and render clean under the
	// service rules — this is the registry-wide sanitation check on the
	// real series set, not a synthetic fixture.
	if err := obs.PromLint(snap, m.promOptions()); err != nil {
		t.Errorf("registry fails prom lint: %v", err)
	}
	text, err := m.PromMetrics()
	if err != nil {
		t.Fatalf("PromMetrics: %v", err)
	}
	for _, want := range []string{
		"# TYPE ice_sim_zram_stores_total counter",
		`codec="base"`,
		"# TYPE ice_sim_frame_latency_us histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("post-job exposition missing %q", want)
		}
	}
	if _, err := obs.ParseProm(bytes.NewReader(text)); err != nil {
		t.Errorf("post-job exposition does not parse: %v", err)
	}
}
