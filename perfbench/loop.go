package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ruu"
	"ruu/internal/server"
	"ruu/internal/store"
)

// clients is the closed loop's concurrency: two keep-alive clients,
// each sending its next request only when the previous reply is in.
const clients = 2

// env is one running service: a Runner, the ruuserve handler on a real
// loopback listener, and the HTTP client driving it.
type env struct {
	runner *ruu.Runner
	store  *store.Store
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startEnv builds a Runner over cfg (and st, when non-nil) and serves
// the ruuserve handler on an ephemeral loopback port.
func startEnv(cfg ruu.RunnerConfig, st *store.Store) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cfg.Store = st
	e := &env{
		runner: ruu.NewRunner(cfg),
		store:  st,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	e.hs = &http.Server{Handler: server.New(server.Config{Runner: e.runner, Store: st}).Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, the pool and the store, waiting for each.
func (e *env) close() error {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.runner.Close()
	if e.store != nil {
		if cerr := e.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// record is one request as the client saw it. It keeps the reference
// keys of the request's items, not the request, so a run's records stay
// small next to the heap the server works in.
type record struct {
	keys  []refKey
	reqID string
	latNS int64
	fail  string // "" for a well-formed reply, until the output check
	outs  []outcome
}

// do sends one request and reduces its reply.
func (e *env) do(o *op, reqID string) record {
	rec := record{keys: o.keys(), reqID: reqID}
	req, err := http.NewRequest(http.MethodPost, e.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		rec.fail = "request: " + err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		rec.fail = "transport error"
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latNS = time.Since(t0).Nanoseconds()
	switch {
	case err != nil:
		rec.fail = "transport error"
	case resp.StatusCode/100 != 2:
		rec.fail = fmt.Sprintf("%s status %d: %.160s", o.path, resp.StatusCode, body)
	default:
		rec.outs, rec.fail = parseReply(o, body)
	}
	return rec
}

// windowResult is one timed closed-loop window.
type windowResult struct {
	recs      []record
	elapsed   time.Duration
	cpu       time.Duration // process user+sys CPU over the window
	exhausted bool          // the task sequence ran out before the deadline
}

// window runs the closed loop for d, taking tasks from next on. With
// traced set, every request carries an X-Request-ID so its server job
// spans can be matched; itemBudget, when positive, stops taking tasks
// once that many simulation items were sent.
func (e *env) window(in *inputs, next *atomic.Int64, d time.Duration, traced bool, itemBudget int64) windowResult {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		res       windowResult
		items     atomic.Int64
		exhausted atomic.Bool
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var recs []record
			for n := 0; time.Now().Before(deadline); n++ {
				i := next.Add(1) - 1
				if i >= in.limit {
					exhausted.Store(true)
					break
				}
				t := in.task(i)
				if itemBudget > 0 {
					k := int64(0)
					for _, o := range t {
						k += int64(len(o.items))
					}
					if items.Add(k) > itemBudget {
						break
					}
				}
				for k := range t {
					id := ""
					if traced {
						id = fmt.Sprintf("pb-%d-%d-%d", c, n, k)
					}
					recs = append(recs, e.do(&t[k], id))
				}
			}
			mu.Lock()
			res.recs = append(res.recs, recs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.exhausted = exhausted.Load()
	return res
}

// warm sends tasks [0, n) of in, one at a time, and fails on any
// malformed reply.
func (e *env) warm(in *inputs, next *atomic.Int64, n int64) error {
	for ; next.Load() < n; next.Add(1) {
		t := in.task(next.Load())
		for k := range t {
			if rec := e.do(&t[k], ""); rec.fail != "" {
				return fmt.Errorf("warm-up %s: %s", t[k].path, rec.fail)
			}
		}
	}
	return nil
}

// get fetches a GET endpoint's body.
func (e *env) get(path string, header ...string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+path, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// counters scrapes GET /metrics in Prometheus text form into a map from
// series (name plus labels) to value.
func (e *env) counters() (map[string]float64, error) {
	body, err := e.get("/metrics", "Accept", "text/plain")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
