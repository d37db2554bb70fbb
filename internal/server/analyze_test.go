package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ruu/internal/livermore"
)

// Regenerate the golden analyze responses after an intentional
// analysis or latency-model change:
//
//	go test ./internal/server -run TestAnalyzeKernelsGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestAnalyzeKernelsGolden pins the exact POST /v1/analyze response for
// every built-in kernel. The analysis is deterministic, so any drift is
// a real change to the lint rules, the census, the memory-dependence
// summary, or the dataflow bound.
func TestAnalyzeKernelsGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, k := range livermore.Kernels() {
		rec := postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"kernel": k.Name})
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", k.Name, rec.Code, rec.Body.String())
		}
		got := rec.Body.Bytes()
		path := filepath.Join("testdata", "analyze_"+k.Name+".json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", k.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response drifted from %s (run with -update if intentional):\ngot:\n%s",
				k.Name, path, got)
		}
	}
}

func TestAnalyzeInlineAsm(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"asm": `
    lai   A0, 3
    lai   A1, 50
    lai   A3, 0
loop:
    sta   A0, 0(A1)
    lda   A2, 0(A1)
    adda  A3, A3, A2
    addai A0, A0, -1
    janz  loop
    halt
`})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[analyzeResponse](t, rec)
	if resp.Program != "asm" {
		t.Errorf("program = %q, want asm", resp.Program)
	}
	if resp.Static.Loops != 1 {
		t.Errorf("loops = %d, want 1", resp.Static.Loops)
	}
	if resp.Static.MemDeps.Must == 0 || resp.Static.MemDeps.Carried == 0 {
		t.Errorf("memdeps = %+v, want must and carried edges", resp.Static.MemDeps)
	}
	if resp.Bound.Cycles <= 0 || resp.BoundRegOnly.Cycles <= 0 {
		t.Errorf("bounds not computed: %+v / %+v", resp.Bound, resp.BoundRegOnly)
	}
	if resp.Bound.Cycles < resp.BoundRegOnly.Cycles {
		t.Errorf("tight bound %d below register-only bound %d",
			resp.Bound.Cycles, resp.BoundRegOnly.Cycles)
	}
	if resp.Bound.MemDepEdges == 0 {
		t.Errorf("store→load replay found no memory-dependence edges: %+v", resp.Bound)
	}
}

// TestAnalyzeRejectsUninitRead checks the pre-screen 422: an
// error-severity finding rejects the program with the findings in the
// body, before any replay.
func TestAnalyzeRejectsUninitRead(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"asm": `
    addai A1, A2, 1
    halt
`})
	if rec.Code != 422 {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	rej := decodeBody[analyzeReject](t, rec)
	if rej.Error == "" || len(rej.Findings) == 0 {
		t.Fatalf("reject body incomplete: %+v", rej)
	}
	if rej.Findings[0].Rule != "uninit-read" || rej.Findings[0].Severity != "error" {
		t.Errorf("finding = %+v, want error-severity uninit-read", rej.Findings[0])
	}
}

// TestAnalyzeRejectsOOBAccess checks the value-range rule gates: a
// provably out-of-bounds access is a 422 without simulating.
func TestAnalyzeRejectsOOBAccess(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"asm": `
    lai   A1, -5
    lda   A2, 0(A1)
    halt
`})
	if rec.Code != 422 {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	rej := decodeBody[analyzeReject](t, rec)
	found := false
	for _, f := range rej.Findings {
		if f.Rule == "oob-access" {
			found = true
		}
	}
	if !found {
		t.Errorf("findings %+v missing oob-access", rej.Findings)
	}
}

// TestAnalyzeNotesDoNotReject checks advisory notes ride along in a 200
// response instead of gating.
func TestAnalyzeNotesDoNotReject(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"asm": `
    lai   A0, 3
    lai   A1, 50
    lai   A6, 0
loop:
    lda   A2, 0(A1)
    adda  A6, A6, A2
    addai A0, A0, -1
    janz  loop
    halt
`})
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[analyzeResponse](t, rec)
	found := false
	for _, f := range resp.Findings {
		if f.Rule == "loop-invariant-load" && f.Severity == "note" {
			found = true
		}
	}
	if !found {
		t.Errorf("findings %+v missing the advisory loop-invariant-load note", resp.Findings)
	}
}

func TestAnalyzeValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body map[string]string
	}{
		{"empty", map[string]string{}},
		{"both", map[string]string{"asm": "halt", "kernel": "LLL1"}},
		{"unknown kernel", map[string]string{"kernel": "LLL99"}},
		{"bad asm", map[string]string{"asm": "florp A1, A2"}},
	} {
		rec := postJSON(t, s.Handler(), "/v1/analyze", tc.body)
		if rec.Code != 422 {
			t.Errorf("%s: status %d, want 422: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		wantAPIError(t, rec, 422)
	}
}

// TestAnalyzeMetrics checks the Prometheus wiring: the /v1/analyze
// route label in the request family and the reject counter.
func TestAnalyzeMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"kernel": "LLL1"})
	postJSON(t, s.Handler(), "/v1/analyze", map[string]string{"asm": "addai A1, A2, 1\nhalt"})
	body := scrapePrometheus(t, s.Handler())
	for _, want := range []string{
		`ruu_http_requests_total{route="POST /v1/analyze",code="200"} 1`,
		`ruu_http_requests_total{route="POST /v1/analyze",code="422"} 1`,
		`ruu_analyze_reject_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
