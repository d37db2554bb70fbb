// Command ruuserve exposes the simulator as an HTTP/JSON service:
// single-program simulation, batches such as a sweep of the Livermore
// suite over machine sizes, static analysis, health, and scheduler/cache
// metrics — all backed by one worker pool and one content-addressed
// result cache.
//
// Usage:
//
//	ruuserve                         # listen on :8093, GOMAXPROCS workers
//	ruuserve -addr :9000 -workers 8
//	ruuserve -cachesize 0            # default cache; negative disables
//	ruuserve -debug-addr :6060      # pprof on a separate admin listener
//	ruuserve -store-dir /var/ruu    # persistent result store (warm restarts)
//
// With -store-dir, completed results are written through to a
// disk-backed content-addressed store and survive restarts: a
// redeployed server answers its previous working set from disk.
//
// Endpoints (see docs/SERVICE.md for the full reference):
//
//	POST   /v1/simulate   run one program (inline asm or built-in kernel)
//	POST   /v1/batch      run many programs, results streamed as NDJSON
//	POST   /v1/analyze    static pre-screen of one program, no simulation
//	GET    /v1/trace      recent job spans as a Chrome trace document
//	GET    /healthz       liveness, draining state, and build info
//	GET    /metrics       JSON by default; Prometheus text with Accept: text/plain
//
// With -debug-addr set, net/http/pprof is served on that address under
// /debug/pprof/ — an admin-only listener, never the public API mux.
//
// On SIGINT/SIGTERM the server drains gracefully: new POSTs get 503
// with Retry-After, in-flight requests (streaming batches included) run
// to completion, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ruu"
	"ruu/internal/server"
	"ruu/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ruuserve: ")
	var (
		addr      = flag.String("addr", ":8093", "listen address")
		debugAddr = flag.String("debug-addr", "", "admin listen address for /debug/pprof/ (empty = disabled)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the simulation scheduler")
		cachesize = flag.Int("cachesize", ruu.DefaultCacheEntries, "result-cache capacity in entries (0 = default, negative = disabled: no content key is computed and identical concurrent submissions each run)")
		maxBody   = flag.Int64("max-body", server.DefaultMaxRequestBytes, "request body size limit in bytes")
		timeout   = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request simulation deadline")
		drainFor  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		logJobs   = flag.Bool("log-jobs", false, "log one line per finished scheduler job (debug level)")

		storeDir      = flag.String("store-dir", "", "directory of the persistent result store (empty = memory only)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "persistent-store byte bound (0 = 1 GiB default, negative = unbounded)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *logJobs {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		log.Printf("persistent store at %s (%d entries warm)", *storeDir, st.Stats().Entries)
	}

	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: *workers, CacheEntries: *cachesize, Store: st})
	defer runner.Close()

	srv := server.New(server.Config{
		Runner:          runner,
		MaxRequestBytes: *maxBody,
		RequestTimeout:  *timeout,
		Store:           st,
		Log:             logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling is never
		// reachable through the public API address.
		admin := http.NewServeMux()
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, admin); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers, cache %d entries)", *addr, *workers, *cachesize)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new work, let in-flight HTTP requests
	// (streaming batches included) finish, then stop the pool.
	log.Printf("draining (budget %v)...", *drainFor)
	srv.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("drained")
}
