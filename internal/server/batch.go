package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"ruu"
	"ruu/internal/livermore"
	"ruu/internal/obs"
)

// This file is POST /v1/batch: many (configuration, program) items in
// one request, their outcomes streamed back as NDJSON in submission
// order. The deterministic-order contract of internal/sched carries to
// the wire: every item is submitted to the pool before any result is
// awaited, workers complete in whatever order they like, and the
// stream still renders item i's line before item i+1's — so a batch's
// body is byte-identical run to run, cold cache or warm, one worker or
// many. A sweep is one batch: the kernels × machine sizes, one item
// each.
//
// Admission control sheds whole batches: a request whose items would
// push the global or per-client in-flight count past its cap is
// answered 429 + Retry-After before any work starts, so a burst
// degrades to fast rejections rather than memory growth.

// Batch defaults for Config's zero values.
const (
	// DefaultMaxBatchItems bounds the items of one POST /v1/batch.
	DefaultMaxBatchItems = 1024
	// DefaultMaxBatchInFlight bounds batch items admitted across all
	// concurrent requests.
	DefaultMaxBatchInFlight = 4096
	// DefaultMaxClientInFlight bounds batch items admitted per client
	// (X-Client-ID header, else remote host).
	DefaultMaxClientInFlight = 2048
)

// batchItem is one entry of a batch: a machine configuration plus
// exactly one program source. POST /v1/simulate takes one item plus a
// per-request timeout (a batch's stream is paced by the client reading
// it).
type batchItem struct {
	machineRequest
	Asm    string `json:"asm,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	// Verify (default true) checks the final state against the
	// functional reference.
	Verify *bool `json:"verify,omitempty"`
}

// batchRequest is the body of POST /v1/batch.
type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchLine is one NDJSON result line. It carries no timing — only
// fields fixed by the item's content — which is what keeps a batch
// body byte-identical across runs, workers, and cache states.
type batchLine struct {
	Index   int             `json:"index"`
	Outcome *ruu.SimOutcome `json:"outcome,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// batchJob is one validated item ready to run.
type batchJob struct {
	cfg    ruu.Config
	unit   *ruu.Unit
	verify bool
}

// clientKey identifies the client for the per-client in-flight cap:
// the X-Client-ID header when present, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admitBatch reserves n in-flight slots for client ck, reporting
// whether the batch is admitted. Rejection reserves nothing.
func (s *Server) admitBatch(ck string, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxBatchInFlight > 0 && s.batchInFlight+n > s.maxBatchInFlight {
		return false
	}
	if s.maxClientInFlight > 0 && s.clientInFlight[ck]+n > s.maxClientInFlight {
		return false
	}
	s.batchInFlight += n
	s.clientInFlight[ck] += n
	return true
}

// releaseBatch returns the slots reserved by admitBatch.
func (s *Server) releaseBatch(ck string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchInFlight -= n
	s.clientInFlight[ck] -= n
	if s.clientInFlight[ck] <= 0 {
		delete(s.clientInFlight, ck)
	}
}

// buildBatchJob validates one item into a runnable job; the error
// names the offending field (the whole batch is rejected 422 before
// any line is written, so clients never parse a half-stream for a
// typo).
func buildBatchJob(it batchItem) (batchJob, error) {
	cfg, err := it.config()
	if err != nil {
		return batchJob{}, err
	}
	var unit *ruu.Unit
	switch {
	case it.Asm != "" && it.Kernel != "":
		return batchJob{}, errors.New("asm and kernel are mutually exclusive")
	case it.Asm != "":
		unit, err = ruu.Assemble(it.Asm)
		if err != nil {
			return batchJob{}, err
		}
	case it.Kernel != "":
		k := livermore.ByName(it.Kernel)
		if k == nil {
			return batchJob{}, fmt.Errorf("unknown kernel %q", it.Kernel)
		}
		unit, err = k.Unit()
		if err != nil {
			return batchJob{}, err
		}
	default:
		return batchJob{}, errors.New("need asm or kernel")
	}
	return batchJob{
		cfg:    cfg,
		unit:   unit,
		verify: it.Verify == nil || *it.Verify,
	}, nil
}

// readBatch decodes and validates a POST /v1/batch body without
// running anything. When it reports false it has already written the
// 400, 413 or 422.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) ([]batchJob, bool) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return nil, false
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusUnprocessableEntity, "items must be non-empty")
		return nil, false
	}
	if s.maxBatchItems > 0 && len(req.Items) > s.maxBatchItems {
		writeError(w, http.StatusUnprocessableEntity,
			"batch exceeds %d items", s.maxBatchItems)
		return nil, false
	}
	jobs := make([]batchJob, len(req.Items))
	for i, it := range req.Items {
		j, err := buildBatchJob(it)
		if err != nil {
			writeUnprocessable(w, fmt.Errorf("item %d: %w", i, err))
			return nil, false
		}
		jobs[i] = j
	}
	return jobs, true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	jobs, ok := s.readBatch(w, r)
	if !ok {
		return
	}

	ck := clientKey(r)
	if !s.admitBatch(ck, len(jobs)) {
		s.batchShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		writeError(w, http.StatusTooManyRequests,
			"batch load shed (%d items in flight would exceed the cap); retry later", len(jobs))
		return
	}
	defer s.releaseBatch(ck, len(jobs))

	ctx := obs.WithJobName(r.Context(), "batch")

	// Submit every item before awaiting any: the pool runs them
	// concurrently while the stream below consumes results strictly in
	// index order.
	waits := make([]func(context.Context) (ruu.SimOutcome, error), len(jobs))
	var submitErr error
	for i, j := range jobs {
		wait, err := s.runner.SubmitProgram(ctx, j.cfg, j.unit, j.verify)
		if err != nil {
			// The pool refused (cancelled/closed): items from here on
			// carry the same error in their lines.
			submitErr = err
			break
		}
		waits[i] = wait
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range jobs {
		line := batchLine{Index: i}
		switch {
		case waits[i] == nil:
			line.Error = fmt.Sprintf("not submitted: %v", submitErr)
		default:
			out, err := waits[i](ctx)
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Outcome = &out
			}
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; remaining results stay cached
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
