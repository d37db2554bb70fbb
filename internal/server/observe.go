package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ruu/internal/obs"
)

// This file is the service-observability wiring: the request-ID
// middleware, the HTTP access log, and the Prometheus metric registry
// published by GET /metrics (Accept: text/plain). Everything here
// reads service state at scrape time — nothing touches the
// simulator's per-cycle hot path.

// BuildInfo is the build metadata reported by GET /healthz and the
// ruu_build_info metric, read from the binary's embedded module info.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	Version   string `json:"version"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// ReadBuildInfo extracts the binary's build metadata (Go version,
// module version, VCS revision when the binary was built from a
// checkout). Fields missing from the embedded info stay empty.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	bi.Module = info.Main.Path
	bi.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}

// routeLabel maps a request to a bounded route label for the
// ruu_http_requests_total metric: the mux pattern that served it, so
// the route table is written once, in New. Requests no pattern matches
// collapse into "METHOD other", so an abusive client cannot grow the
// label space.
func (s *Server) routeLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return r.Method + " other"
}

// statusRecorder captures the response status for the access log and
// the per-route request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the NDJSON batch lines) to the
// underlying writer; embedding alone would hide its Flusher from the
// interface assertion in the batch handler.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability is the outermost middleware: it assigns the
// request ID (the client's X-Request-ID, or a generated req-N),
// reflects it in the response, carries it through context into
// scheduler jobs, counts the request per route and status code, and
// writes one structured access-log line.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// Access-log latency is operational telemetry about this
		// process; no simulation ever sees it. //ruulint:ok simdeterminism
		start := time.Now()
		next.ServeHTTP(sr, r)
		route := s.routeLabel(r)
		s.countRequest(route, sr.status)
		if s.log != nil {
			// Same telemetry clock as above.
			s.log.Info("request",
				slog.String("request_id", id),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sr.status),
				slog.Int64("duration_ms", time.Since(start).Milliseconds())) //ruulint:ok simdeterminism access-log telemetry clock
		}
	})
}

// countRequest bumps the per-(route, status) request counter.
func (s *Server) countRequest(route string, status int) {
	key := fmt.Sprintf("%s\x00%d", route, status)
	s.mu.Lock()
	s.httpReqs[key]++
	s.mu.Unlock()
}

// httpRequestPoints renders the request counters as stable-ordered
// exposition points.
func (s *Server) httpRequestPoints() []obs.Point {
	s.mu.Lock()
	keys := make([]string, 0, len(s.httpReqs))
	for k := range s.httpReqs {
		keys = append(keys, k)
	}
	counts := make(map[string]int64, len(keys))
	for _, k := range keys {
		counts[k] = s.httpReqs[k]
	}
	s.mu.Unlock()
	sort.Strings(keys)
	points := make([]obs.Point, 0, len(keys))
	for _, k := range keys {
		route, code, _ := strings.Cut(k, "\x00")
		points = append(points, obs.Point{
			Labels: []obs.Label{{Name: "route", Value: route}, {Name: "code", Value: code}},
			Value:  float64(counts[k]),
		})
	}
	return points
}

// onJobSpan is the scheduler's span hook: every executed pool job
// feeds the queue-wait histogram and, when a logger is configured, one
// structured job-log line carrying the originating request's ID.
func (s *Server) onJobSpan(sp obs.Span) {
	// obs.Hist is single-writer by design; the hook runs on pool
	// worker goroutines, so serialize.
	s.qwMu.Lock()
	s.queueWait.Observe(sp.QueueWaitNS() / 1e6)
	s.qwMu.Unlock()
	s.recordSpan(sp)
	if s.log != nil {
		name := sp.Name
		if name == "" {
			name = "job"
		}
		s.log.Debug("job",
			slog.String("job", name),
			slog.String("request_id", sp.RequestID),
			slog.Int("worker", sp.Worker),
			slog.Int64("queue_wait_ms", sp.QueueWaitNS()/1e6),
			slog.Int64("run_ms", (sp.EndNS-sp.StartNS)/1e6),
			slog.Bool("error", sp.Err))
	}
}

// recordSpan keeps the most recent job spans for the trace endpoint
// (bounded by the recorder's limit).
func (s *Server) recordSpan(sp obs.Span) {
	if s.spans != nil {
		s.spans.Record(sp)
	}
}

// wireMetrics registers the service's Prometheus metric families. The
// same numbers stay available as JSON (the default GET /metrics
// rendering); this is the text-exposition view scraped by Prometheus.
func (s *Server) wireMetrics(build BuildInfo) {
	reg := s.reg
	reg.GaugeFunc("ruu_build_info",
		"Build metadata as labels; the value is always 1.",
		func() float64 { return 1 },
		obs.Label{Name: "go_version", Value: build.GoVersion},
		obs.Label{Name: "version", Value: build.Version},
		obs.Label{Name: "revision", Value: build.Revision})
	reg.CollectFunc("ruu_http_requests_total",
		"HTTP requests served, by route and status code.",
		"counter", s.httpRequestPoints)
	reg.GaugeFunc("ruu_draining",
		"1 while the server refuses new work during shutdown.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	pool := s.runner.Pool()
	if pool != nil {
		reg.GaugeFunc("ruu_sched_workers",
			"Worker goroutines in the simulation pool.",
			func() float64 { return float64(pool.Metrics().Workers) })
		reg.GaugeFunc("ruu_sched_queue_capacity",
			"Capacity of the bounded job queue.",
			func() float64 { return float64(pool.Metrics().QueueDepth) })
		reg.GaugeFunc("ruu_sched_queued",
			"Jobs waiting in the queue.",
			func() float64 { return float64(pool.Metrics().Queued) })
		reg.GaugeFunc("ruu_sched_running",
			"Jobs currently executing.",
			func() float64 { return float64(pool.Metrics().Running) })
		reg.CollectFunc("ruu_sched_jobs_total",
			"Pool jobs by outcome since start.",
			"counter", func() []obs.Point {
				m := pool.Metrics()
				return []obs.Point{
					{Labels: []obs.Label{{Name: "outcome", Value: "submitted"}}, Value: float64(m.Submitted)},
					{Labels: []obs.Label{{Name: "outcome", Value: "completed"}}, Value: float64(m.Completed)},
					{Labels: []obs.Label{{Name: "outcome", Value: "failed"}}, Value: float64(m.Failed)},
					{Labels: []obs.Label{{Name: "outcome", Value: "panicked"}}, Value: float64(m.Panics)},
					{Labels: []obs.Label{{Name: "outcome", Value: "deduped"}}, Value: float64(m.Deduped)},
				}
			})
		reg.CounterFunc("ruu_cache_hits_total",
			"Result-cache hits.",
			func() float64 { return float64(pool.Metrics().Cache.Hits) })
		reg.CounterFunc("ruu_cache_misses_total",
			"Result-cache misses.",
			func() float64 { return float64(pool.Metrics().Cache.Misses) })
		reg.CounterFunc("ruu_cache_evictions_total",
			"Result-cache LRU evictions.",
			func() float64 { return float64(pool.Metrics().Cache.Evictions) })
		reg.GaugeFunc("ruu_cache_entries",
			"Result-cache resident entries.",
			func() float64 { return float64(pool.Metrics().Cache.Entries) })
		reg.GaugeFunc("ruu_cache_capacity",
			"Result-cache capacity.",
			func() float64 { return float64(pool.Metrics().Cache.Capacity) })
		reg.HistogramFunc("ruu_sched_queue_wait_ms",
			"Milliseconds jobs spent queued before a worker picked them up.",
			func() []obs.LabeledHist {
				s.qwMu.Lock()
				snap := s.queueWait.Snapshot()
				s.qwMu.Unlock()
				return []obs.LabeledHist{{Snap: snap}}
			})
	}

	if s.store != nil {
		reg.CounterFunc("ruu_store_hits_total",
			"Persistent result-store hits (results served from disk).",
			func() float64 { return float64(s.store.Stats().Hits) })
		reg.CounterFunc("ruu_store_misses_total",
			"Persistent result-store misses.",
			func() float64 { return float64(s.store.Stats().Misses) })
		reg.CounterFunc("ruu_store_evictions_total",
			"Persistent result-store entries displaced by the byte bound.",
			func() float64 { return float64(s.store.Stats().Evictions) })
		reg.CounterFunc("ruu_store_bytes_total",
			"Payload bytes written to the persistent result store.",
			func() float64 { return float64(s.store.Stats().BytesWritten) })
		reg.GaugeFunc("ruu_store_entries",
			"Persistent result-store resident entries.",
			func() float64 { return float64(s.store.Stats().Entries) })
		reg.GaugeFunc("ruu_store_resident_bytes",
			"Persistent result-store resident payload bytes.",
			func() float64 { return float64(s.store.Stats().Bytes) })
	}

	reg.CounterFunc("ruu_batch_shed_total",
		"Batches shed 429 by admission control.",
		func() float64 { return float64(s.batchShed.Load()) })

	reg.CounterFunc("ruu_analyze_reject_total",
		"Programs rejected by the POST /v1/analyze static pre-screen "+
			"(error-severity lint findings or a trapping replay).",
		func() float64 { return float64(s.analyzeRejects.Load()) })
	reg.CounterFunc("ruu_sim_cycles_total",
		"Simulated machine cycles, summed over synchronous simulations.",
		func() float64 { return float64(s.simCycles.Load()) })
	reg.CounterFunc("ruu_sim_instructions_total",
		"Simulated instructions, summed over synchronous simulations.",
		func() float64 { return float64(s.simInstructions.Load()) })
	reg.CounterFunc("ruu_sim_wall_ms_total",
		"Wall-clock milliseconds spent in synchronous simulations; with "+
			"ruu_sim_cycles_total this yields the service's cycles/sec rate.",
		func() float64 { return float64(s.simWallMS.Load()) })
	reg.HistogramFunc("ruu_sim_latency_ms",
		"Service-side simulation latency by engine.",
		func() []obs.LabeledHist {
			s.mu.Lock()
			names := make([]string, 0, len(s.latency))
			for name := range s.latency {
				names = append(names, name)
			}
			snaps := make(map[string]obs.HistSnapshot, len(names))
			for _, name := range names {
				snaps[name] = s.latency[name].Snapshot()
			}
			s.mu.Unlock()
			sort.Strings(names)
			hists := make([]obs.LabeledHist, 0, len(names))
			for _, name := range names {
				hists = append(hists, obs.LabeledHist{
					Labels: []obs.Label{{Name: "engine", Value: name}},
					Snap:   snaps[name],
				})
			}
			return hists
		})
}

// acceptsPrometheus reports whether the request negotiates the text
// exposition format. JSON stays the default so existing clients keep
// working; a Prometheus scraper's Accept header selects text.
func acceptsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}
