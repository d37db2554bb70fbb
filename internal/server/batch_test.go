package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ruu"
	"ruu/internal/store"
)

// batchBody is the canonical mixed workload used by the golden tests:
// several kernels across engines and sizes, with repeats (exercising
// dedup) and an unverified item.
func batchBody() map[string]any {
	return map[string]any{
		"items": []map[string]any{
			{"engine": "ruu", "entries": 8, "kernel": "LLL1"},
			{"engine": "rstu", "entries": 10, "kernel": "LLL3"},
			{"engine": "ruu", "entries": 16, "bypass": "none", "kernel": "LLL7"},
			{"engine": "ruu", "entries": 8, "kernel": "LLL1"}, // repeat of item 0
			{"engine": "simple", "kernel": "LLL12"},
			{"engine": "ruu", "entries": 12, "kernel": "LLL3", "verify": false},
		},
	}
}

// parseNDJSON strictly parses a batch stream: one JSON object per
// line, indexes ascending from 0.
func parseNDJSON(t *testing.T, body []byte) []batchLine {
	t.Helper()
	var lines []batchLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln batchLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ln.Index != len(lines) {
			t.Fatalf("line %d carries index %d (order broken)", len(lines), ln.Index)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestBatchStreamsInSubmissionOrder(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/batch", batchBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := parseNDJSON(t, rec.Body.Bytes())
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	for i, ln := range lines {
		if ln.Error != "" || ln.Outcome == nil {
			t.Fatalf("line %d: error %q, outcome %v", i, ln.Error, ln.Outcome)
		}
		if ln.Outcome.Cycles == 0 {
			t.Fatalf("line %d: zero cycles", i)
		}
	}
	// Items 0 and 3 are identical submissions: identical rendering.
	l0, _ := json.Marshal(lines[0].Outcome)
	l3, _ := json.Marshal(lines[3].Outcome)
	if !bytes.Equal(l0, l3) {
		t.Fatalf("duplicate items diverged:\n%s\n%s", l0, l3)
	}
	// The unverified item must say so.
	if lines[5].Outcome.Verified {
		t.Fatal("verify:false item came back verified")
	}
}

// TestBatchParallelMatchesSerial: the same batch through a pooled
// server and a serial (nil-pool) server must be byte-identical — the
// submission-order contract at the HTTP surface.
func TestBatchParallelMatchesSerial(t *testing.T) {
	serial := newTestServer(t, Config{Runner: &ruu.Runner{}})
	parallel := newTestServer(t, Config{})

	want := postJSON(t, serial.Handler(), "/v1/batch", batchBody())
	got := postJSON(t, parallel.Handler(), "/v1/batch", batchBody())
	if want.Code != http.StatusOK || got.Code != http.StatusOK {
		t.Fatalf("status %d / %d", want.Code, got.Code)
	}
	if !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
		t.Fatalf("parallel batch differs from serial:\n--- serial\n%s--- parallel\n%s",
			want.Body, got.Body)
	}
	// And a re-run against the now-warm cache is byte-identical too.
	again := postJSON(t, parallel.Handler(), "/v1/batch", batchBody())
	if !bytes.Equal(want.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("warm-cache batch differs from serial")
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxBatchItems: 3})
	h := s.Handler()
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no items", map[string]any{"items": []map[string]any{}}, 422},
		{"too many items", map[string]any{"items": []map[string]any{
			{"kernel": "LLL1"}, {"kernel": "LLL1"}, {"kernel": "LLL1"}, {"kernel": "LLL1"},
		}}, 422},
		{"bad engine", map[string]any{"items": []map[string]any{
			{"engine": "warp-drive", "kernel": "LLL1"},
		}}, 422},
		{"unknown kernel", map[string]any{"items": []map[string]any{
			{"kernel": "LLL99"},
		}}, 422},
		{"no program", map[string]any{"items": []map[string]any{{"engine": "ruu"}}}, 422},
		{"both programs", map[string]any{"items": []map[string]any{
			{"kernel": "LLL1", "asm": "halt"},
		}}, 422},
		{"unknown field", map[string]any{"items": []map[string]any{
			{"krenel": "LLL1"},
		}}, 400},
	}
	for _, tc := range cases {
		rec := postJSON(t, h, "/v1/batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		wantAPIError(t, rec, tc.want)
	}
	// A bad item names its index so clients can fix it.
	rec := postJSON(t, h, "/v1/batch", map[string]any{"items": []map[string]any{
		{"kernel": "LLL1"}, {"kernel": "LLL99"},
	}})
	if !strings.Contains(rec.Body.String(), "item 1") {
		t.Errorf("error does not name the bad item: %s", rec.Body)
	}
}

func TestBatchAdmissionSheds429(t *testing.T) {
	s := newTestServer(t, Config{MaxBatchInFlight: 2})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/batch", map[string]any{"items": []map[string]any{
		{"kernel": "LLL1"}, {"kernel": "LLL3"}, {"kernel": "LLL7"},
	}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	wantAPIError(t, rec, http.StatusTooManyRequests)
	if got := rec.Header().Get("Retry-After"); got != strconv.Itoa(RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}
	// A batch that fits is admitted, and the slots are released after.
	rec2 := postJSON(t, h, "/v1/batch", map[string]any{"items": []map[string]any{
		{"kernel": "LLL1"}, {"kernel": "LLL3"},
	}})
	if rec2.Code != http.StatusOK {
		t.Fatalf("fitting batch = %d: %s", rec2.Code, rec2.Body)
	}
	s.mu.Lock()
	inFlight := s.batchInFlight
	s.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("slots leaked: %d in flight after completion", inFlight)
	}
	// The shed shows up on the scrape.
	if body := scrapePrometheus(t, h); !strings.Contains(body, "ruu_batch_shed_total 1") {
		t.Error("scrape missing ruu_batch_shed_total 1")
	}
}

func TestBatchPerClientCap(t *testing.T) {
	s := newTestServer(t, Config{MaxClientInFlight: 1})
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(
		`{"items":[{"kernel":"LLL1"},{"kernel":"LLL3"}]}`))
	req.Header.Set("X-Client-ID", "greedy")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	s.mu.Lock()
	leaked := len(s.clientInFlight)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("rejected batch reserved client slots: %d clients tracked", leaked)
	}
}

// TestBatchPersistReload is the HTTP half of the persist-and-reload
// guarantee: a server killed after completing a subset of a workload,
// restarted over the same store directory, serves the completed
// results from disk byte-identically — and never runs a job twice.
func TestBatchPersistReload(t *testing.T) {
	dir := t.TempDir()
	items := []map[string]any{
		{"engine": "ruu", "entries": 8, "kernel": "LLL1"},
		{"engine": "ruu", "entries": 16, "kernel": "LLL3"},
		{"engine": "rstu", "entries": 10, "kernel": "LLL7"},
		{"engine": "simple", "kernel": "LLL12"},
		{"engine": "ruu", "entries": 12, "bypass": "none", "kernel": "LLL2"},
	}

	// First life: complete the first 3 items, then die.
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := ruu.NewRunner(ruu.RunnerConfig{Workers: 2, Store: st1})
	s1 := New(Config{Runner: r1, Store: st1})
	rec1 := postJSON(t, s1.Handler(), "/v1/batch", map[string]any{"items": items[:3]})
	if rec1.Code != http.StatusOK {
		t.Fatalf("first life: %d: %s", rec1.Code, rec1.Body)
	}
	firstLines := strings.Split(strings.TrimSuffix(rec1.Body.String(), "\n"), "\n")
	r1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same store dir, the full workload.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	r2 := ruu.NewRunner(ruu.RunnerConfig{Workers: 2, Store: st2})
	t.Cleanup(r2.Close)
	s2 := New(Config{Runner: r2, Store: st2})
	rec2 := postJSON(t, s2.Handler(), "/v1/batch", map[string]any{"items": items})
	if rec2.Code != http.StatusOK {
		t.Fatalf("second life: %d: %s", rec2.Code, rec2.Body)
	}
	secondLines := strings.Split(strings.TrimSuffix(rec2.Body.String(), "\n"), "\n")
	if len(secondLines) != len(items) {
		t.Fatalf("second life returned %d lines", len(secondLines))
	}
	// Completed results are byte-identical across the restart.
	for i := range firstLines {
		if firstLines[i] != secondLines[i] {
			t.Fatalf("line %d changed across restart:\n%s\n%s", i, firstLines[i], secondLines[i])
		}
	}
	// No job ran twice: only the 2 new items hit the simulator.
	if n := r2.Pool().Metrics().Completed; n != 2 {
		t.Fatalf("second life executed %d jobs, want 2", n)
	}
	if hits := st2.Stats().Hits; hits < 3 {
		t.Fatalf("store served %d hits, want >= 3", hits)
	}
	// The store families are on the scrape when a store is configured.
	body := scrapePrometheus(t, s2.Handler())
	for _, want := range []string{
		"ruu_store_hits_total",
		"ruu_store_misses_total",
		"ruu_store_evictions_total",
		"ruu_store_bytes_total",
		"ruu_store_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
