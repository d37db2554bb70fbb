// Package server implements the ruuserve HTTP/JSON API: simulation as a
// service over the ruu.Runner scheduler. Single-program simulation
// (POST /v1/simulate) and bulk runs such as a sweep of the Livermore
// suite over machine sizes (POST /v1/batch) share one worker pool and
// one content-addressed result cache, so identical submissions are
// answered without re-simulating.
//
// The package is one of the two places in the module where goroutines
// are allowed (the other is internal/sched); the ruulint simdeterminism
// pass covers it, and every goroutine/time.Now below carries an
// individually justified //ruulint:ok <pass> marker — see
// docs/ANALYSIS.md for the policy.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ruu"
	"ruu/internal/asm"
	"ruu/internal/obs"
	"ruu/internal/store"
)

// Defaults for Config's zero values.
const (
	// DefaultMaxRequestBytes bounds a request body (1 MiB holds any
	// plausible assembly source).
	DefaultMaxRequestBytes = 1 << 20
	// DefaultRequestTimeout bounds a synchronous simulation.
	DefaultRequestTimeout = 60 * time.Second
	// RetryAfterSeconds is the Retry-After hint on 429 (batch shed) and
	// 503 (draining) responses.
	RetryAfterSeconds = 5
	// StatusClientClosedRequest is the (nginx-convention) status
	// reported when the client disconnected mid-simulation.
	StatusClientClosedRequest = 499
	// DefaultSpanLimit bounds the retained job spans (GET /v1/trace).
	DefaultSpanLimit = 4096
)

// Config parameterises New.
type Config struct {
	// Runner executes the simulations (required).
	Runner *ruu.Runner
	// MaxRequestBytes bounds a request body (default
	// DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// RequestTimeout is the per-request simulation deadline for
	// POST /v1/simulate (default DefaultRequestTimeout). A request's
	// timeout_ms field may shorten it, never extend it.
	RequestTimeout time.Duration
	// Store, when non-nil, is the persistent result store layered
	// under the Runner's cache; the server only exports its counters
	// (the Runner is wired to it by the caller).
	Store *store.Store
	// MaxBatchItems bounds the items of one POST /v1/batch (default
	// DefaultMaxBatchItems; negative disables the cap).
	MaxBatchItems int
	// MaxBatchInFlight bounds batch items admitted across all
	// concurrent requests (default DefaultMaxBatchInFlight; negative
	// disables). A batch that would exceed it is shed with 429.
	MaxBatchInFlight int
	// MaxClientInFlight bounds batch items admitted per client
	// (default DefaultMaxClientInFlight; negative disables).
	MaxClientInFlight int
	// Log, when non-nil, receives structured request and job logs.
	Log *slog.Logger
}

// Server is the ruuserve HTTP API. Create with New, serve via Handler,
// stop with StartDrain before http.Server.Shutdown (see cmd/ruuserve for
// the full graceful shutdown sequence).
type Server struct {
	runner          *ruu.Runner
	mux             *http.ServeMux
	maxRequestBytes int64
	requestTimeout  time.Duration
	log             *slog.Logger
	reg             *obs.Registry
	spans           *obs.SpanRecorder
	build           BuildInfo

	store             *store.Store
	maxBatchItems     int
	maxBatchInFlight  int
	maxClientInFlight int

	mu             sync.Mutex
	draining       bool
	latency        map[string]*obs.Hist // per-engine wall-clock ms histograms
	httpReqs       map[string]int64     // "route\x00code" -> request count
	batchInFlight  int                  // admitted /v1/batch items
	clientInFlight map[string]int       // admitted items per client

	qwMu      sync.Mutex
	queueWait *obs.Hist // job queue-wait ms, fed by the pool span hook

	reqSeq          atomic.Int64 // generated request-ID sequence
	simCycles       atomic.Int64
	simInstructions atomic.Int64
	simWallMS       atomic.Int64
	analyzeRejects  atomic.Int64 // programs 422-rejected by the static pre-screen
	batchShed       atomic.Int64 // batches 429-shed by admission control
}

// New returns a Server over cfg.Runner.
func New(cfg Config) *Server {
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBatchItems == 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	if cfg.MaxBatchInFlight == 0 {
		cfg.MaxBatchInFlight = DefaultMaxBatchInFlight
	}
	if cfg.MaxClientInFlight == 0 {
		cfg.MaxClientInFlight = DefaultMaxClientInFlight
	}
	s := &Server{
		runner:          cfg.Runner,
		mux:             http.NewServeMux(),
		maxRequestBytes: cfg.MaxRequestBytes,
		requestTimeout:  cfg.RequestTimeout,
		log:             cfg.Log,
		reg:             obs.NewRegistry(),
		spans:           obs.NewSpanRecorder(),
		build:           ReadBuildInfo(),

		store:             cfg.Store,
		maxBatchItems:     cfg.MaxBatchItems,
		maxBatchInFlight:  cfg.MaxBatchInFlight,
		maxClientInFlight: cfg.MaxClientInFlight,

		latency:        make(map[string]*obs.Hist),
		httpReqs:       make(map[string]int64),
		clientInFlight: make(map[string]int),
		queueWait:      obs.NewHist(10, 100), // 10 ms buckets, 1 s overflow
	}
	s.spans.SetLimit(DefaultSpanLimit)
	s.wireMetrics(s.build)
	if p := s.runner.Pool(); p != nil {
		p.SetOnJobSpan(s.onJobSpan)
	}
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the API's HTTP handler: the mux wrapped in the
// request-ID/access-log middleware.
func (s *Server) Handler() http.Handler { return s.withObservability(s.mux) }

// Registry returns the server's metric registry (for callers adding
// process-level families before serving).
func (s *Server) Registry() *obs.Registry { return s.reg }

// StartDrain puts the server in draining mode: new POSTs are refused
// with 503 while GETs (health, metrics, trace) keep working. Requests
// already in flight, a streaming /v1/batch included, run to completion;
// http.Server.Shutdown waits for them.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// apiError is the JSON error body. File/Line carry assembler
// diagnostics (POST /v1/simulate with bad asm).
type apiError struct {
	Error string `json:"error"`
	File  string `json:"file,omitempty"`
	Line  int    `json:"line,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response already committed; nothing to do with a late error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeUnprocessable writes err as a 422. An assembler error anywhere
// in its chain also fills File and Line, so a client can point at the
// offending source line.
func writeUnprocessable(w http.ResponseWriter, err error) {
	body := apiError{Error: err.Error()}
	var aerr *asm.Error
	if errors.As(err, &aerr) {
		body.File, body.Line = aerr.File, aerr.Line
	}
	writeJSON(w, http.StatusUnprocessableEntity, body)
}

// decode reads a size-limited body holding exactly one JSON value,
// mapping oversize bodies to 413 and malformed JSON, or bytes after the
// value, to 400. It reports whether the request can proceed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// A second value, or garbage, after the first is malformed too.
		if err = dec.Decode(&json.RawMessage{}); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		return false
	}
	return true
}

// refuseIfDraining answers POSTs with 503 + Retry-After during
// shutdown (the hint tells well-behaved clients when to try a
// replacement instance).
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	}
	return draining
}

// machineRequest is the configuration block shared by simulate and
// batch requests; zero values take the same defaults as ruu.Config.
type machineRequest struct {
	Engine      string `json:"engine"`
	Entries     int    `json:"entries"`
	Paths       int    `json:"paths"`
	TagUnitSize int    `json:"tag_unit_size"`
	Bypass      string `json:"bypass"`
	CounterBits int    `json:"counter_bits"`
	CommitWidth int    `json:"commit_width"`
	LoadRegs    int    `json:"load_regs"`
	Speculate   bool   `json:"speculate"`
}

func (m machineRequest) config() (ruu.Config, error) {
	cfg := ruu.Config{
		Engine:      ruu.EngineKind(m.Engine),
		Entries:     m.Entries,
		Paths:       m.Paths,
		TagUnitSize: m.TagUnitSize,
		Bypass:      ruu.BypassKind(m.Bypass),
		CounterBits: m.CounterBits,
		CommitWidth: m.CommitWidth,
	}
	cfg.Machine.LoadRegs = m.LoadRegs
	cfg.Machine.Speculate = m.Speculate
	// Validate eagerly so a bad engine name is a 422 on the request,
	// not a failed job later.
	if _, err := ruu.NewEngine(cfg); err != nil {
		return ruu.Config{}, err
	}
	return cfg, nil
}

// engineName returns the display name used as the latency-histogram
// key (the configured kind, defaulting like ruu.Config does).
func (m machineRequest) engineName() string {
	if m.Engine == "" {
		return string(ruu.EngineRUU)
	}
	return m.Engine
}

// simulateRequest is the body of POST /v1/simulate: one batch item
// (a machine configuration plus exactly one program source) and a
// per-request timeout.
type simulateRequest struct {
	batchItem
	// TimeoutMS shortens the server's per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// simulateResponse is the body of a successful POST /v1/simulate.
type simulateResponse struct {
	Outcome ruu.SimOutcome `json:"outcome"`
	// ElapsedMS is the service-side wall-clock time, including queueing
	// (near zero on a cache hit).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// readSimulate decodes and validates a POST /v1/simulate body without
// running anything. When it reports false it has already written the
// 400, 413 or 422.
func (s *Server) readSimulate(w http.ResponseWriter, r *http.Request) (simulateRequest, batchJob, bool) {
	var req simulateRequest
	if !s.decode(w, r, &req) {
		return req, batchJob{}, false
	}
	job, err := buildBatchJob(req.batchItem)
	if err != nil {
		writeUnprocessable(w, err)
		return req, batchJob{}, false
	}
	return req, job, true
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	req, job, ok := s.readSimulate(w, r)
	if !ok {
		return
	}

	// Compared in milliseconds: a huge timeout_ms would overflow a
	// Duration, and it asks for no shortening anyway.
	timeout := s.requestTimeout
	if req.TimeoutMS > 0 && req.TimeoutMS < timeout.Milliseconds() {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(
		obs.WithJobName(r.Context(), "simulate "+req.engineName()), timeout)
	defer cancel()

	// Service latency is operational telemetry about this process, not
	// simulation state; the simulated machine never sees it. //ruulint:ok simdeterminism
	start := time.Now()
	out, err := s.runner.RunProgram(ctx, job.cfg, job.unit, job.verify)
	// Same telemetry clock as above; never enters a simulation. //ruulint:ok simdeterminism
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "simulation exceeded %v", timeout)
		case errors.Is(err, context.Canceled):
			// The client went away; the status code is for the access
			// log (nginx's 499 convention).
			writeError(w, StatusClientClosedRequest, "client closed request")
		default:
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	s.observeLatency(req.engineName(), elapsed)
	s.simCycles.Add(out.Cycles)
	s.simInstructions.Add(out.Instructions)
	s.simWallMS.Add(elapsed.Milliseconds())
	writeJSON(w, http.StatusOK, simulateResponse{
		Outcome:   out,
		ElapsedMS: elapsed.Milliseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": draining,
		"build":    s.build,
	})
}

// handleTrace serves the retained scheduler job spans as a Chrome
// trace-event document — open it in Perfetto to see queue wait and
// execution per worker, with request IDs in the slice args.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.spans.WriteChromeTrace(w) // response already committed
}

// observeLatency records one request's wall-clock service time in the
// per-engine histogram (10 ms buckets, 2 s overflow).
func (s *Server) observeLatency(engine string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.latency[engine]
	if h == nil {
		h = obs.NewHist(10, 200)
		s.latency[engine] = h
	}
	h.Observe(d.Milliseconds())
}

// metricsResponse is the body of GET /metrics: scheduler and cache
// counters and per-engine service latency histograms.
type metricsResponse struct {
	Scheduler any            `json:"scheduler"`
	LatencyMS map[string]any `json:"latency_ms"`
	Draining  bool           `json:"draining"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w) // response already committed
		return
	}
	resp := metricsResponse{LatencyMS: map[string]any{}}
	if p := s.runner.Pool(); p != nil {
		resp.Scheduler = p.Metrics()
	}
	s.mu.Lock()
	resp.Draining = s.draining
	names := make([]string, 0, len(s.latency))
	for name := range s.latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp.LatencyMS[name] = s.latency[name].Summary()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
