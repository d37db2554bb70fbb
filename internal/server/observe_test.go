package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLineRE matches one exposition sample line (name, optional
// labels, float value); comment lines are checked separately.
var promLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// scrapePrometheus fetches /metrics with a text Accept header and
// strictly parses the body: every non-empty line is a HELP/TYPE
// comment or a well-formed sample, and every sample's family has a
// preceding TYPE.
func scrapePrometheus(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body := rec.Body.String()
	types := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				types[f[2]] = true
			}
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Fatalf("line %d: unparseable sample %q", ln+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b != name && types[b] {
				base = b
			}
		}
		if !types[base] {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
	}
	return body
}

func TestPrometheusMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Drive some traffic so counters and histograms are non-trivial.
	rec := postJSON(t, h, "/v1/simulate", map[string]any{"kernel": "LLL3"})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", rec.Code, rec.Body.String())
	}
	body := scrapePrometheus(t, h)
	for _, want := range []string{
		"ruu_build_info",
		`ruu_http_requests_total{route="POST /v1/simulate",code="200"} 1`,
		"ruu_sched_workers",
		"ruu_sched_jobs_total{outcome=\"completed\"}",
		"ruu_cache_hits_total",
		"ruu_sched_queue_wait_ms_bucket",
		"ruu_sim_latency_ms_count{engine=\"ruu\"} 1",
		"ruu_sim_cycles_total",
		"ruu_sim_instructions_total",
		"ruu_draining 0",
		"ruu_batch_shed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// JSON stays the default rendering for clients that don't negotiate.
	plain := get(t, h, "/metrics")
	if ct := plain.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default /metrics Content-Type = %q, want application/json", ct)
	}
}

// TestRouteLabelsFromMux: every routed endpoint is labelled with its
// mux pattern, and a request no pattern serves (an unknown path, or a
// known path with the wrong method) with "METHOD other".
func TestRouteLabelsFromMux(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	get(t, h, "/v1/trace")
	get(t, h, "/healthz")
	if rec := get(t, h, "/v1/simulate"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate = %d, want 405", rec.Code)
	}
	get(t, h, "/no/such/path")
	body := scrapePrometheus(t, h)
	for _, want := range []string{
		`ruu_http_requests_total{route="GET /v1/trace",code="200"} 1`,
		`ruu_http_requests_total{route="GET /healthz",code="200"} 1`,
		`ruu_http_requests_total{route="GET other",code="405"} 1`,
		`ruu_http_requests_total{route="GET other",code="404"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// A client-supplied ID is echoed; a generated one is assigned
	// otherwise.
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "client-abc")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-abc" {
		t.Errorf("echoed request id = %q", got)
	}
	rec2 := get(t, h, "/healthz")
	if got := rec2.Header().Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Errorf("generated request id = %q, want req-N", got)
	}

	// The ID rides into pool job spans: run a simulation and check the
	// trace endpoint mentions it.
	req3 := httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"kernel":"LLL3"}`))
	req3.Header.Set("X-Request-ID", "trace-me")
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	if rec3.Code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", rec3.Code, rec3.Body.String())
	}
	tr := get(t, h, "/v1/trace")
	if tr.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace = %d", tr.Code)
	}
	if !json.Valid(tr.Body.Bytes()) {
		t.Fatalf("trace is not valid JSON: %s", tr.Body.String())
	}
	if !strings.Contains(tr.Body.String(), "trace-me") {
		t.Errorf("trace does not carry the request id: %s", tr.Body.String())
	}
	if !strings.Contains(tr.Body.String(), "simulate ruu") {
		t.Errorf("trace does not carry the job name: %s", tr.Body.String())
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := get(t, s.Handler(), "/healthz")
	body := decodeBody[map[string]any](t, rec)
	build, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing build info: %v", body)
	}
	gv, _ := build["go_version"].(string)
	if !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %q", gv)
	}
	if mod, _ := build["module"].(string); mod != "ruu" {
		t.Errorf("module = %q, want ruu", mod)
	}
}

func TestDrainingSetsRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{})
	s.StartDrain()
	rec := postJSON(t, s.Handler(), "/v1/batch",
		map[string]any{"items": []map[string]any{{"kernel": "LLL1"}}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining batch = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != strconv.Itoa(RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}
}

// TestQueueFullIs429WithRetryAfter: a negative in-flight cap admits a
// batch however many items other requests hold; with the cap held, the
// next batch is shed 429 with a Retry-After hint and reserves nothing.
func TestQueueFullIs429WithRetryAfter(t *testing.T) {
	one := map[string]any{"items": []map[string]any{{"kernel": "LLL1"}}}
	s := newTestServer(t, Config{MaxBatchInFlight: -1})
	s.mu.Lock()
	s.batchInFlight = DefaultMaxBatchInFlight // held by other requests
	s.mu.Unlock()
	if rec := postJSON(t, s.Handler(), "/v1/batch", one); rec.Code != http.StatusOK {
		t.Fatalf("uncapped batch = %d: %s", rec.Code, rec.Body.String())
	}

	s2 := newTestServer(t, Config{MaxBatchInFlight: 1})
	s2.mu.Lock()
	s2.batchInFlight = 1
	s2.mu.Unlock()
	rec2 := postJSON(t, s2.Handler(), "/v1/batch", one)
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("capped batch = %d: %s", rec2.Code, rec2.Body.String())
	}
	if got := rec2.Header().Get("Retry-After"); got != strconv.Itoa(RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}
	s2.mu.Lock()
	held := s2.batchInFlight
	s2.mu.Unlock()
	if held != 1 {
		t.Errorf("shed batch changed the in-flight count to %d", held)
	}
}
