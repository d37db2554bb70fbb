package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ruu"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Runner == nil {
		r := ruu.NewRunner(ruu.RunnerConfig{Workers: 4})
		t.Cleanup(r.Close)
		cfg.Runner = r
	}
	return New(cfg)
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestSimulateKernel(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{
		"engine": "ruu", "entries": 12, "kernel": "LLL1",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decodeBody[simulateResponse](t, rec)
	if !resp.Outcome.Verified || resp.Outcome.Cycles == 0 {
		t.Errorf("unexpected outcome: %+v", resp.Outcome)
	}
	if !strings.HasPrefix(resp.Outcome.Engine, "ruu") {
		t.Errorf("engine = %q", resp.Outcome.Engine)
	}
}

func TestSimulateInlineAsm(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{
		"engine": "rstu", "entries": 10,
		"asm": "    lai A1, 7\n    halt\n",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decodeBody[simulateResponse](t, rec)
	if resp.Outcome.Instructions != 2 || !resp.Outcome.Verified {
		t.Errorf("outcome = %+v", resp.Outcome)
	}
}

func TestMalformedAsmIs422WithLine(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{
		"asm": "    lai A1, 7\n    bogus B9\n    halt\n",
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	e := decodeBody[apiError](t, rec)
	if e.Line != 2 {
		t.Errorf("diagnostic line = %d, want 2 (%+v)", e.Line, e)
	}
	if !strings.Contains(e.Error, "line 2") {
		t.Errorf("error %q does not carry the line", e.Error)
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown engine", "/v1/simulate", map[string]any{"engine": "warp-drive", "kernel": "LLL1"}, 422},
		{"unknown kernel", "/v1/simulate", map[string]any{"kernel": "LLL99"}, 422},
		{"no program", "/v1/simulate", map[string]any{"engine": "ruu"}, 422},
		{"both programs", "/v1/simulate", map[string]any{"kernel": "LLL1", "asm": "halt"}, 422},
		{"unknown field", "/v1/simulate", map[string]any{"krenel": "LLL1"}, 400},
		{"empty sizes", "/v1/sweep", map[string]any{"engine": "ruu"}, 422},
		{"negative size", "/v1/sweep", map[string]any{"sizes": []int{3, -1}}, 422},
		{"absurd ruu size", "/v1/simulate", map[string]any{"engine": "ruu", "entries": 1 << 60, "kernel": "LLL1"}, 422},
		{"absurd rstu size", "/v1/simulate", map[string]any{"engine": "rstu", "entries": 1 << 60, "kernel": "LLL1"}, 422},
		{"huge rstu size", "/v1/simulate", map[string]any{"engine": "rstu", "entries": 100_000_000, "kernel": "LLL1"}, 422},
		{"huge tag unit", "/v1/simulate", map[string]any{"engine": "rspool", "tag_unit_size": 100_000_000, "kernel": "LLL1"}, 422},
		{"huge paths", "/v1/simulate", map[string]any{"engine": "rstu", "paths": 100_000_000, "kernel": "LLL1"}, 422},
		{"huge load regs", "/v1/simulate", map[string]any{"load_regs": 100_000_000, "kernel": "LLL1"}, 422},
	}
	for _, c := range cases {
		rec := postJSON(t, s.Handler(), c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestOversizeRequestIs413(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: 256})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{
		"asm": strings.Repeat("; padding\n", 100) + "halt\n",
	})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
}

func TestClientDisconnectIs499(t *testing.T) {
	s := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{"kernel": "LLL1"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already gone away
	req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
}

func TestDeadlineIs504(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{"kernel": "LLL1"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := get(t, s.Handler(), "/v1/jobs/job-999"); rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

func pollJob(t *testing.T, h http.Handler, url string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := decodeBody[jobResponse](t, get(t, h, url))
		switch j.State {
		case "done", "failed", "cancelled":
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", url, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceIntegration is the ISSUE's acceptance scenario over real
// HTTP: submit a sweep, poll the async job to completion, check the
// rows against the serial harness, resubmit and see the cache hits in
// /metrics, then shut down gracefully with a job in flight and verify
// the drained job still serves its result.
func TestServiceIntegration(t *testing.T) {
	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: 4})
	defer runner.Close()
	s := New(Config{Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sizes := []int{3, 6}
	sweepBody, _ := json.Marshal(map[string]any{
		"engine": "rstu", "sizes": sizes,
	})
	httpPost := func() jobResponse {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(sweepBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
		}
		var j jobResponse
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
		return j
	}

	// 1. Submit and poll to completion.
	job := httpPost()
	if job.ID == "" || job.URL == "" {
		t.Fatalf("bad 202 body: %+v", job)
	}
	done := pollJob(t, s.Handler(), job.URL)
	if done.State != "done" || len(done.Rows) != len(sizes) {
		t.Fatalf("job finished as %+v", done)
	}

	// 2. The rows match the serial harness byte for byte.
	serial, err := ruu.Sweep(ruu.Config{Engine: ruu.EngineRSTU}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", done.Rows), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("HTTP sweep diverges from serial:\n got %s\nwant %s", got, want)
	}

	// 3. Resubmit: every kernel run is answered from the cache.
	job2 := httpPost()
	done2 := pollJob(t, s.Handler(), job2.URL)
	if done2.State != "done" {
		t.Fatalf("resubmitted job finished as %+v", done2)
	}
	m := decodeBody[map[string]any](t, get(t, s.Handler(), "/metrics"))
	sched, _ := m["scheduler"].(map[string]any)
	cache, _ := sched["cache"].(map[string]any)
	if hits, _ := cache["hits"].(float64); hits == 0 {
		t.Errorf("/metrics shows no cache hits after resubmission: %v", m)
	}
	if lat, _ := m["latency_ms"].(map[string]any); lat["rstu"] == nil {
		t.Errorf("/metrics carries no rstu latency histogram: %v", m["latency_ms"])
	}

	// 4. Graceful shutdown with a job in flight: drain, then collect
	// the drained job's result.
	inflight := httpPost()
	s.StartDrain()
	if rec := postJSON(t, s.Handler(), "/v1/sweep", map[string]any{"sizes": sizes}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a POST (status %d)", rec.Code)
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := decodeBody[jobResponse](t, get(t, s.Handler(), inflight.URL))
	if final.State != "done" || len(final.Rows) != len(sizes) {
		t.Fatalf("drained job is %+v, want done with %d rows", final, len(sizes))
	}
	h := decodeBody[map[string]any](t, get(t, s.Handler(), "/healthz"))
	if h["draining"] != true {
		t.Errorf("healthz does not report draining: %v", h)
	}
}

func TestJobCancellation(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/sweep", map[string]any{
		"engine": "ruu", "sizes": []int{3, 6, 10, 15},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body)
	}
	j := decodeBody[jobResponse](t, rec)
	delReq := httptest.NewRequest("DELETE", j.URL, nil)
	delRec := httptest.NewRecorder()
	s.Handler().ServeHTTP(delRec, delReq)
	if delRec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", delRec.Code, delRec.Body)
	}
	if rec := get(t, s.Handler(), j.URL); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted job still served (status %d)", rec.Code)
	}
	// Drain must not hang on the cancelled job.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after cancel: %v", err)
	}
}

func TestMetricsAndHealthzShape(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	rec := get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	m := decodeBody[map[string]any](t, rec)
	sched, ok := m["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("metrics carries no scheduler block: %s", rec.Body)
	}
	if _, ok := sched["workers"]; !ok {
		t.Errorf("scheduler block lacks workers: %v", sched)
	}
}
