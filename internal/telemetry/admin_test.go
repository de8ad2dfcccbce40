package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter("adm_total", "h")
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	reg.MustRegister(c)
	log := NewQueryLog(4)
	log.add(Record{Name: "q.example.", Type: "A", Rcode: "NOERROR", Path: PathEdge})

	healthy := true
	a := &Admin{Registry: reg, Log: log, Healthy: func() bool { return healthy },
		Health: func() any {
			return map[string]any{"routable": true}
		},
		Routes: func() any {
			return map[string]any{"rows": 3}
		}}
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	code, body, hdr := getBody(t, ts, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "adm_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}

	code, body, _ = getBody(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	healthy = false
	code, body, _ = getBody(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/healthz draining = %d %q", code, body)
	}

	code, body, hdr = getBody(t, ts, "/querylog")
	if code != http.StatusOK || !strings.Contains(body, "q.example.") {
		t.Errorf("/querylog = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/querylog content-type = %q", ct)
	}
	// Draining endpoint: a second fetch is empty.
	if _, body, _ = getBody(t, ts, "/querylog"); strings.TrimSpace(body) != "" {
		t.Errorf("second /querylog not empty: %q", body)
	}

	code, body, hdr = getBody(t, ts, "/health")
	if code != http.StatusOK || !strings.Contains(body, `"routable": true`) {
		t.Errorf("/health = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/health content-type = %q", ct)
	}

	code, body, _ = getBody(t, ts, "/routes")
	if code != http.StatusOK || !strings.Contains(body, `"rows": 3`) {
		t.Errorf("/routes = %d %q", code, body)
	}

	code, body, _ = getBody(t, ts, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestAdminNilLogAndRegistry(t *testing.T) {
	a := &Admin{}
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	if code, _, _ := getBody(t, ts, "/querylog"); code != http.StatusNotFound {
		t.Errorf("/querylog with nil log = %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts, "/health"); code != http.StatusNotFound {
		t.Errorf("/health with nil snapshot fn = %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts, "/routes"); code != http.StatusNotFound {
		t.Errorf("/routes with nil fn = %d, want 404", code)
	}
	if code, body, _ := getBody(t, ts, "/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics with nil registry = %d %q", code, body)
	}
}

func TestAdminStartServesAndCloses(t *testing.T) {
	a := &Admin{Addr: "127.0.0.1:0", Registry: NewRegistry()}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	addr := a.LocalAddr()
	if addr == nil {
		t.Fatal("no local addr after Start")
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	if err := a.Start(); err == nil {
		t.Error("second Start accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.LocalAddr() != nil {
		t.Error("addr survives Close")
	}
}
