package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"

	"ruu"
	"ruu/internal/bench"
	"ruu/internal/server"
)

// analyzeCorpusDigest pins the POST /v1/analyze replies for 240
// generated programs (bench.AnalyzeCorpus, seed 13): the status code
// and body of every reply, in order, hashed. The kernel goldens
// (testdata/analyze_LLL*.json) cover 14 hand-written programs; these
// cover the short, branchy programs synth-cold sends, and the rejects.
// A change here is a change to the assembler, the lint rules, the
// census, the memory-dependence summary or the dataflow bounds.
const analyzeCorpusDigest = "d50885dc5befa338ad4e0cfce6808afac9a85a6d5039f82bc82a71c8248e4c3e"

func TestAnalyzeGeneratedDigest(t *testing.T) {
	r := ruu.NewRunner(ruu.RunnerConfig{Workers: 1, CacheEntries: -1})
	defer r.Close()
	h := server.New(server.Config{Runner: r}).Handler()
	sum := sha256.New()
	counts := map[int]int{}
	for i, body := range bench.AnalyzeCorpus(13, 240) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		counts[rec.Code]++
		if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("program %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var code [2]byte
		binary.LittleEndian.PutUint16(code[:], uint16(rec.Code))
		sum.Write(code[:])
		sum.Write(rec.Body.Bytes())
	}
	if counts[http.StatusOK] < 100 || counts[http.StatusUnprocessableEntity] < 100 {
		t.Errorf("replies by status = %v, want at least 100 accepted and 100 rejected", counts)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != analyzeCorpusDigest {
		t.Errorf("generated-program analyze digest = %s, want %s", got, analyzeCorpusDigest)
	}
}
