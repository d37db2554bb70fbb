package bench

// Service-layer benchmarks: the persistent result store
// (internal/store) and the /v1/batch endpoint at several pool widths.
// The batch benchmarks drive the real HTTP handler through httptest
// recorders — the same code path `make quickstart-http` exercises over
// a socket — so a batch-path regression shows up in the BENCH_*.json
// trajectory, not just in wall-clock anecdotes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"

	"ruu"
	"ruu/internal/server"
	"ruu/internal/store"
)

// storeBenchKey derives the i-th distinct content-addressed key; keys
// are sha256-shaped like real job keys so the store's sharded object
// layout (objects/<hh>/) spreads exactly as in production.
func storeBenchKey(i int) store.Key {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(i))
	return sha256.Sum256(seed[:])
}

// storeBenchPayload is sized like a marshalled SimOutcome envelope
// (~1 KiB of JSON).
var storeBenchPayload = bytes.Repeat([]byte(`{"cycles":1234,"instr":5678} `), 36)

// benchStoreWrite measures Put throughput on an unbounded store:
// encode, tmp+rename, fsync, and the index append, per entry.
func benchStoreWrite(b B, n int) {
	dir, err := os.MkdirTemp("", "ruu-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		s.Put(storeBenchKey(i), storeBenchPayload)
	}
	if w := s.Stats().WriteErrors; w != 0 {
		b.Fatalf("store reported %d write errors", w)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "puts/s")
	b.ReportMetric(float64(n*len(storeBenchPayload))/b.Elapsed().Seconds(), "bytes/s")
}

// storeReadEntries is the warm working set benchStoreRead cycles over.
const storeReadEntries = 64

// benchStoreRead measures Get throughput over a warm store: decode,
// checksum verification, and LRU bookkeeping, per hit.
func benchStoreRead(b B, n int) {
	dir, err := os.MkdirTemp("", "ruu-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < storeReadEntries; i++ {
		s.Put(storeBenchKey(i), storeBenchPayload)
	}
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if _, ok := s.Get(storeBenchKey(i % storeReadEntries)); !ok {
			b.Fatalf("key %d missing from warm store", i%storeReadEntries)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "gets/s")
}

// batchBenchBody is a six-item /v1/batch request spanning the engines,
// matching the golden-test shape in internal/server.
var batchBenchBody = []byte(`{"items":[` +
	`{"engine":"ruu","entries":8,"kernel":"LLL1"},` +
	`{"engine":"rstu","entries":10,"kernel":"LLL3"},` +
	`{"engine":"ruu","entries":16,"bypass":"none","kernel":"LLL7"},` +
	`{"engine":"simple","kernel":"LLL12"},` +
	`{"engine":"ruu","entries":12,"kernel":"LLL3"},` +
	`{"engine":"rstu","entries":14,"kernel":"LLL5"}]}`)

const batchBenchItems = 6

// benchBatchThroughput posts the canonical six-item batch through the
// real HTTP handler once per iteration, with the result cache disabled
// so every item re-simulates; workers is the pool width, so the
// 1/2/4-worker trio measures how batch throughput scales with the
// scheduler fan-out.
func benchBatchThroughput(b B, n, workers int) {
	b.Helper()
	r := ruu.NewRunner(ruu.RunnerConfig{Workers: workers, CacheEntries: -1})
	defer r.Close()
	h := server.New(server.Config{Runner: r}).Handler()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(batchBenchBody))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(n*batchBenchItems)/b.Elapsed().Seconds(), "items/s")
}
