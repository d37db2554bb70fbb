// Quickstart for the simulation service: drive the ruuserve HTTP API
// end to end — simulate a program, run a sweep of the Livermore suite
// as one streamed batch, and read the scheduler/cache metrics.
//
// By default the example is self-contained: it starts the service
// in-process on a loopback port, exercises it over real HTTP, and
// shuts it down gracefully (this is what `make quickstart-http` runs
// in CI). Point it at an already-running server with -addr:
//
//	ruuserve -addr :8093 &
//	go run ./examples/quickstart/client -addr http://localhost:8093
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"ruu"
	"ruu/internal/livermore"
	"ruu/internal/server"

	"flag"
)

// The same dot product as examples/quickstart, but submitted as JSON
// over the wire instead of assembled in-process. The data arrays are
// initialised with assembler directives because the HTTP API runs the
// program from its data image.
const src = `
.equ    n 64
.farray x 64 0.25
.farray y 64 2.0
.word   result 0

    lai   A7, 0
    lai   A1, 0          ; index
    lai   A0, =n         ; loop countdown
    lsi   S1, 0          ; sum
loop:
    lds   S2, =x(A1)
    lds   S3, =y(A1)
    fmul  S2, S2, S3
    addai A0, A0, -1
    fadd  S1, S1, S2
    addai A1, A1, 1
    janz  loop
    sts   S1, =result(A7)
    halt
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart-client: ")
	addr := flag.String("addr", "", "base URL of a running ruuserve (default: self-host in-process)")
	flag.Parse()

	base := *addr
	if base == "" {
		var shutdown func()
		base, shutdown = selfHost()
		defer shutdown()
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	// 1. Synchronous simulation: POST the program, get the verified
	// outcome back.
	var sim struct {
		Outcome   ruu.SimOutcome `json:"outcome"`
		ElapsedMS int64          `json:"elapsed_ms"`
	}
	postJSON(client, base+"/v1/simulate", map[string]any{
		"engine":  "ruu",
		"entries": 12,
		"asm":     src,
	}, &sim)
	fmt.Printf("simulate: engine=%s instructions=%d cycles=%d issue-rate=%.3f verified=%v\n",
		sim.Outcome.Engine, sim.Outcome.Instructions, sim.Outcome.Cycles,
		sim.Outcome.IssueRate, sim.Outcome.Verified)

	// 2. The same submission again: answered from the content-addressed
	// cache (see the hit counter in step 4).
	postJSON(client, base+"/v1/simulate", map[string]any{
		"engine":  "ruu",
		"entries": 12,
		"asm":     src,
	}, &sim)
	fmt.Printf("resubmit: cycles=%d (elapsed %dms)\n", sim.Outcome.Cycles, sim.ElapsedMS)

	// 3. A sweep (the shape of Tables 2-7) is one batch: the 14
	// kernels on the simple-issue baseline, then at each RSTU size.
	// The result lines stream back in item order; any error line fails.
	sizes := []int{3, 6, 10}
	kernels := livermore.Kernels()
	var items []map[string]any
	for _, n := range append([]int{0}, sizes...) {
		for _, k := range kernels {
			item := map[string]any{"engine": "rstu", "entries": n, "kernel": k.Name}
			if n == 0 {
				item = map[string]any{"engine": "simple", "kernel": k.Name}
			}
			items = append(items, item)
		}
	}
	cycles := make([]int64, 1+len(sizes))
	instrs := make([]int64, 1+len(sizes))
	postBatch(client, base+"/v1/batch", items, func(index int, out ruu.SimOutcome) {
		cycles[index/len(kernels)] += out.Cycles
		instrs[index/len(kernels)] += out.Instructions
	})
	fmt.Printf("sweep: %d items in one batch\n", len(items))
	for i, n := range sizes {
		fmt.Printf("  entries=%-3d speedup=%.3f issue-rate=%.3f\n",
			n, float64(cycles[0])/float64(cycles[i+1]), float64(instrs[i+1])/float64(cycles[i+1]))
	}

	// 4. Metrics: scheduler depth, cache hit rate, latency histograms.
	var metrics struct {
		Scheduler struct {
			Workers   int `json:"workers"`
			Submitted int `json:"submitted"`
			Completed int `json:"completed"`
			Cache     struct {
				Entries int `json:"entries"`
				Hits    int `json:"hits"`
				Misses  int `json:"misses"`
			} `json:"cache"`
		} `json:"scheduler"`
	}
	getJSON(client, base+"/metrics", &metrics)
	s := metrics.Scheduler
	fmt.Printf("metrics: workers=%d submitted=%d completed=%d cache hits=%d misses=%d\n",
		s.Workers, s.Submitted, s.Completed, s.Cache.Hits, s.Cache.Misses)
	if s.Cache.Hits == 0 {
		log.Fatal("expected the resubmission to hit the result cache")
	}
}

// selfHost starts the service in-process on a loopback port and
// returns its base URL and a graceful-shutdown func.
func selfHost() (string, func()) {
	runner := ruu.NewRunner(ruu.RunnerConfig{})
	srv := server.New(server.Config{Runner: runner})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // reported via requests failing
	base := "http://" + ln.Addr().String()
	log.Printf("self-hosted ruuserve on %s", base)
	return base, func() {
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		runner.Close()
		log.Print("drained and stopped")
	}
}

func postJSON(c *http.Client, url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out, url)
}

// postBatch posts a /v1/batch and hands each verified outcome to line
// as it streams in, failing on an error line, an unverified outcome or
// a missing line.
func postBatch(c *http.Client, url string, items []map[string]any, line func(int, ruu.SimOutcome)) {
	b, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	dec := json.NewDecoder(resp.Body)
	n := 0
	for {
		var ln struct {
			Index   int             `json:"index"`
			Outcome *ruu.SimOutcome `json:"outcome"`
			Error   string          `json:"error"`
		}
		err := dec.Decode(&ln)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("%s: line %d: %v", url, n, err)
		}
		if ln.Error != "" || ln.Outcome == nil || !ln.Outcome.Verified {
			log.Fatalf("%s: item %d failed (unverified or error %q)", url, ln.Index, ln.Error)
		}
		line(ln.Index, *ln.Outcome)
		n++
	}
	if n != len(items) {
		log.Fatalf("%s: %d lines for %d items", url, n, len(items))
	}
}

func getJSON(c *http.Client, url string, out any) {
	resp, err := c.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out, url)
}

func decode(resp *http.Response, out any, url string) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		log.Fatalf("%s: %v (%s)", url, err, raw)
	}
}
