package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ruu"
	"ruu/internal/livermore"
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
	return serve(t, h, httptest.NewRequest("POST", path, bytes.NewReader(b)))
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	return serve(t, h, httptest.NewRequest("GET", path, nil))
}

// serve runs one request through h on a strictRecorder and returns the
// recorded response.
func serve(t *testing.T, h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := &strictRecorder{ResponseRecorder: httptest.NewRecorder(), t: t}
	h.ServeHTTP(rec, req)
	return rec.ResponseRecorder
}

// strictRecorder is an httptest.ResponseRecorder that fails the test
// when a handler sets a second status. net/http drops that call with a
// log line, so the client sees the first status while the handler
// believes it sent the second.
type strictRecorder struct {
	*httptest.ResponseRecorder
	t       *testing.T
	written bool
}

func (r *strictRecorder) WriteHeader(code int) {
	if r.written {
		r.t.Errorf("handler set status %d after the response was committed with %d", code, r.Code)
		return
	}
	r.written = true
	r.ResponseRecorder.WriteHeader(code)
}

func (r *strictRecorder) Write(b []byte) (int, error) {
	r.written = true
	return r.ResponseRecorder.Write(b)
}

func (r *strictRecorder) WriteString(s string) (int, error) {
	r.written = true
	return r.ResponseRecorder.WriteString(s)
}

func (r *strictRecorder) Flush() {
	r.written = true
	r.ResponseRecorder.Flush()
}

// wantAPIError checks that rec is an error response in the shared
// shape: the given status, Content-Type application/json, and a body
// that decodes to an apiError with a non-empty message. It returns the
// decoded body.
func wantAPIError(t *testing.T, rec *httptest.ResponseRecorder, status int) apiError {
	t.Helper()
	var e apiError
	if rec.Code != status {
		t.Errorf("status %d, want %d: %s", rec.Code, status, rec.Body)
		return e
	}
	// Result reports the headers as they were when the status was
	// written; one set later never reaches the client.
	if ct := rec.Result().Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%d: Content-Type %q, want application/json", status, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Errorf("%d: body %q is not a JSON error: %v", status, rec.Body, err)
	} else if e.Error == "" {
		t.Errorf("%d: body %q has an empty error field", status, rec.Body)
	}
	return e
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
	e := wantAPIError(t, rec, http.StatusUnprocessableEntity)
	if e.Line != 2 {
		t.Errorf("diagnostic line = %d, want 2 (%+v)", e.Line, e)
	}
	if !strings.Contains(e.Error, "line 2") {
		t.Errorf("error %q does not carry the line", e.Error)
	}
}

// TestDataPastMemoryIs422WithLine: a data image larger than memory is
// an assembler diagnostic on its line, on every route that assembles,
// not a panic while the image is laid out.
func TestDataPastMemoryIs422WithLine(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, p := range []struct {
		src  string
		line int
	}{
		{"    nop\n.array A 28700 0\n    halt\n", 2},
		{"    nop\n.base 40000\n.word x 1\n    halt\n", 3},
	} {
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v1/simulate", map[string]any{"asm": p.src}},
			{"/v1/analyze", map[string]any{"asm": p.src}},
			{"/v1/batch", map[string]any{"items": []map[string]any{{"kernel": "LLL1"}, {"asm": p.src}}}},
		} {
			rec := postJSON(t, s.Handler(), c.path, c.body)
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: status %d, want 422: %s", c.path, rec.Code, rec.Body)
			}
			if e := wantAPIError(t, rec, http.StatusUnprocessableEntity); e.Line != p.line {
				t.Errorf("%s: diagnostic line = %d, want %d (%+v)", c.path, e.Line, p.line, e)
			}
		}
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
			continue
		}
		wantAPIError(t, rec, c.want)
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{
		"{not json",
		// One valid value followed by a second one, or by garbage: the
		// body is not one JSON value, and the tail must not be ignored.
		`{"kernel":"LLL1"}{"kernel":"bogus"}`,
		`{"kernel":"LLL1"} garbage`,
	} {
		for _, path := range []string{"/v1/simulate", "/v1/batch", "/v1/analyze"} {
			rec := serve(t, s.Handler(), httptest.NewRequest("POST", path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %q: status %d, want 400", path, body, rec.Code)
				continue
			}
			wantAPIError(t, rec, http.StatusBadRequest)
		}
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
	wantAPIError(t, rec, http.StatusRequestEntityTooLarge)
}

func TestClientDisconnectIs499(t *testing.T) {
	s := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{"kernel": "LLL1"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already gone away
	req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)).WithContext(ctx)
	rec := serve(t, s.Handler(), req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	wantAPIError(t, rec, StatusClientClosedRequest)
}

func TestDeadlineIs504(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{"kernel": "LLL1"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	wantAPIError(t, rec, http.StatusGatewayTimeout)
}

// TestHugeTimeoutDoesNotShorten: a timeout_ms too large for a
// time.Duration asks for no shortening; it must not wrap into a
// negative deadline that fails at once.
func TestHugeTimeoutDoesNotShorten(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, ms := range []int64{1 << 62, 1<<63 - 1} {
		rec := postJSON(t, s.Handler(), "/v1/simulate", map[string]any{
			"kernel": "LLL1", "timeout_ms": ms,
		})
		if rec.Code != http.StatusOK {
			t.Errorf("timeout_ms %d: status %d, want 200: %s", ms, rec.Code, rec.Body)
		}
	}
}

// TestUnknownJobIs404: /v1/jobs/{id} and /v1/sweep are not routes (a
// sweep is a /v1/batch); they answer 404 and count under the bounded
// "other" route label.
func TestUnknownJobIs404(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if rec := get(t, h, "/v1/jobs/job-999"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/job-999: status %d, want 404", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/sweep", map[string]any{"sizes": []int{3}}); rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/sweep: status %d, want 404", rec.Code)
	}
	body := scrapePrometheus(t, h)
	for _, want := range []string{
		`ruu_http_requests_total{route="GET other",code="404"} 1`,
		`ruu_http_requests_total{route="POST other",code="404"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// sweepItems is the shape of a paper sweep as one batch: the 14
// Livermore kernels at each machine configuration, baseline first.
func sweepItems() (items []map[string]any, cfgs []ruu.Config, kernels []*livermore.Kernel) {
	for _, cfg := range []ruu.Config{
		{Engine: ruu.EngineSimple},
		{Engine: ruu.EngineRSTU, Entries: 3},
		{Engine: ruu.EngineRSTU, Entries: 6},
	} {
		for _, k := range livermore.Kernels() {
			items = append(items, map[string]any{
				"engine": string(cfg.Engine), "entries": cfg.Entries, "kernel": k.Name,
			})
			cfgs = append(cfgs, cfg)
			kernels = append(kernels, k)
		}
	}
	return items, cfgs, kernels
}

// TestServiceIntegration is the service's acceptance scenario over
// real HTTP: post a sweep as a /v1/batch, check every outcome against
// a serial library run, resubmit and see the cache hits in /metrics,
// then drain with a batch still streaming and check that it completes
// while new work is refused.
func TestServiceIntegration(t *testing.T) {
	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: 4})
	defer runner.Close()
	s := New(Config{Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items, cfgs, kernels := sweepItems()
	post := func(items []map[string]any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(map[string]any{"items": items})
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	run := func(items []map[string]any) []batchLine {
		t.Helper()
		resp := post(items)
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		return parseNDJSON(t, raw)
	}

	// 1. The sweep's outcomes equal a serial run of the same items.
	lines := run(items)
	if len(lines) != len(items) {
		t.Fatalf("got %d lines for %d items", len(lines), len(items))
	}
	serial := &ruu.Runner{}
	for i, ln := range lines {
		u, err := kernels[i].Unit()
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.RunProgram(context.Background(), cfgs[i], u, true)
		if err != nil {
			t.Fatal(err)
		}
		if ln.Error != "" || ln.Outcome == nil {
			t.Fatalf("item %d: error %q", i, ln.Error)
		}
		if got, want := fmt.Sprintf("%#v", *ln.Outcome), fmt.Sprintf("%#v", want); got != want {
			t.Errorf("item %d diverges from serial:\n got %s\nwant %s", i, got, want)
		}
	}

	// 2. Resubmit: every item is answered from the cache.
	run(items)
	m := decodeBody[map[string]any](t, get(t, s.Handler(), "/metrics"))
	sched, _ := m["scheduler"].(map[string]any)
	cache, _ := sched["cache"].(map[string]any)
	if hits, _ := cache["hits"].(float64); hits < float64(len(items)) {
		t.Errorf("/metrics shows %v cache hits after resubmission, want >= %d: %v", cache["hits"], len(items), m)
	}

	// 3. Graceful shutdown with a batch streaming: new POSTs get 503,
	// the admitted batch still delivers every line.
	var fresh []map[string]any
	for _, k := range livermore.Kernels() {
		fresh = append(fresh, map[string]any{"engine": "ruu", "entries": 10, "kernel": k.Name})
	}
	streaming := post(fresh)
	defer streaming.Body.Close()
	if streaming.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", streaming.StatusCode)
	}
	rd := bufio.NewReader(streaming.Body)
	first, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first line: %v", err)
	}
	s.StartDrain()
	refused := post(items[:1])
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a POST (status %d)", refused.StatusCode)
	}
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown <- ts.Config.Shutdown(ctx)
	}()
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatalf("stream cut by the drain: %v", err)
	}
	drained := parseNDJSON(t, append(first, rest...))
	if len(drained) != len(fresh) {
		t.Fatalf("drained batch delivered %d of %d lines", len(drained), len(fresh))
	}
	for i, ln := range drained {
		if ln.Error != "" || ln.Outcome == nil || !ln.Outcome.Verified {
			t.Fatalf("drained batch line %d: error %q, outcome %v", i, ln.Error, ln.Outcome)
		}
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	h := decodeBody[map[string]any](t, get(t, s.Handler(), "/healthz"))
	if h["draining"] != true {
		t.Errorf("healthz does not report draining: %v", h)
	}
}

// TestJobCancellation: a batch whose client goes away cancels its
// queued pool jobs, and the request's admission slots are released.
func TestJobCancellation(t *testing.T) {
	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: 1})
	defer runner.Close()
	s := New(Config{Runner: runner})
	var items []map[string]any
	for _, n := range []int{40, 45, 50} {
		for _, k := range livermore.Kernels() {
			items = append(items, map[string]any{"engine": "ruu", "entries": n, "kernel": k.Name})
		}
	}
	body, _ := json.Marshal(map[string]any{"items": items})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := &cancelOnFirstLine{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	s.Handler().ServeHTTP(rec, req)

	lines := parseNDJSON(t, rec.Body.Bytes())
	if lines[0].Outcome == nil {
		t.Fatalf("first line carries no outcome: %+v", lines[0])
	}
	if last := lines[len(lines)-1]; last.Error == "" {
		t.Errorf("last line of a cancelled batch carries no error: %+v", last)
	}
	s.mu.Lock()
	inFlight, clients := s.batchInFlight, len(s.clientInFlight)
	s.mu.Unlock()
	if inFlight != 0 || clients != 0 {
		t.Errorf("cancelled batch leaked slots: %d items, %d clients", inFlight, clients)
	}
	if m := runner.Pool().Metrics(); m.Completed >= int64(len(items)) {
		t.Errorf("all %d jobs ran after the cancel (%+v)", len(items), m)
	}
}

// TestShutdownLeavesNoGoroutines: after a real listener has served a
// /v1/simulate and a /v1/batch whose client hung up after the first
// line, closing the listener and the Runner returns the process to its
// goroutine count from before the server started. A handler, worker or
// result wait that outlives its request shows up as a leak here.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: 1})
	ts := httptest.NewServer(New(Config{Runner: runner}).Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	resp, err := client.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"engine":"ruu","entries":12,"kernel":"LLL1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}

	var items []map[string]any
	for _, n := range []int{40, 45, 50} {
		for _, k := range livermore.Kernels() {
			items = append(items, map[string]any{"engine": "ruu", "entries": n, "kernel": k.Name})
		}
	}
	body, _ := json.Marshal(map[string]any{"items": items})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("batch: no first line: %v", err)
	}
	cancel() // the client hangs up mid-stream
	resp.Body.Close()

	tr.CloseIdleConnections()
	ts.Close()
	runner.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines 5s after shutdown, %d before the server started:\n%s",
				runtime.NumGoroutine(), baseline, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelOnFirstLine cancels the request context once the first result
// line is flushed: the client hanging up mid-stream.
type cancelOnFirstLine struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelOnFirstLine) Flush() {
	c.ResponseRecorder.Flush()
	c.cancel()
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
