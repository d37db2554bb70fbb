package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ruu"
	"ruu/internal/livermore"
)

// The request decoders face whatever a client sends. FuzzSimulateRequest
// and FuzzBatchRequest run decode and validation (readSimulate,
// readBatch) on arbitrary bodies, never a simulation: an accepted body
// must yield runnable jobs and leave the response untouched, and a
// rejected one must be a 400, 413 or 422 carrying the shared JSON error
// body. FuzzAnalyzeRequest runs the whole /v1/analyze handler, static
// analysis and replay included.

// fuzzMaxBody is the fuzz server's body limit, small enough that
// mutated inputs reach the 413 path.
const fuzzMaxBody = 4096

// fuzzServer is a server on a serial Runner: no pool, no goroutines.
func fuzzServer() *Server {
	return New(Config{Runner: &ruu.Runner{}, MaxRequestBytes: fuzzMaxBody})
}

// checkRead checks one read's verdict against what it wrote.
func checkRead(t *testing.T, rec *httptest.ResponseRecorder, ok bool, jobs []batchJob) {
	t.Helper()
	if ok {
		if rec.Body.Len() != 0 || len(rec.Result().Header) != 0 {
			t.Fatalf("accepted request wrote a response: %d %q", rec.Code, rec.Body)
		}
		if len(jobs) == 0 {
			t.Fatal("accepted request yielded no jobs")
		}
		// A program may be empty ("#0" assembles to no instructions):
		// the run traps bad-pc at pc 0, a defined outcome.
		for i, j := range jobs {
			if j.unit == nil {
				t.Fatalf("job %d has no unit", i)
			}
		}
		return
	}
	switch rec.Code {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		wantAPIError(t, rec, rec.Code)
	default:
		t.Fatalf("rejection status %d, want 400, 413 or 422: %s", rec.Code, rec.Body)
	}
}

func FuzzSimulateRequest(f *testing.F) {
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		_, job, ok := s.readSimulate(rec, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
		var jobs []batchJob
		if ok {
			jobs = []batchJob{job}
		}
		checkRead(t, rec, ok, jobs)
	})
}

func FuzzBatchRequest(f *testing.F) {
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		jobs, ok := s.readBatch(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		checkRead(t, rec, ok, jobs)
	})
}

// FuzzAnalyzeRequest sends arbitrary bodies through the whole POST
// /v1/analyze handler: decode, assembly, the static analysis, the
// pre-screen and the replay. Every reply must be a 200 with an analysis
// or a 400, 413 or 422 with the JSON error body, and nothing may panic.
// The seeds are every Livermore kernel, by name and as inline assembly.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, k := range livermore.Kernels() {
		for _, req := range []analyzeRequest{{Kernel: k.Name}, {Asm: k.Source}} {
			body, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	h := New(Config{Runner: &ruu.Runner{}, MaxRequestBytes: 1 << 16}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp analyzeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Program == "" {
				t.Fatalf("200 body is not an analysis (%v): %s", err, rec.Body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			wantAPIError(t, rec, rec.Code)
		default:
			t.Fatalf("status %d, want 200, 400, 413 or 422: %s", rec.Code, rec.Body)
		}
	})
}
