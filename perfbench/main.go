// Command perfbench is the repository's end-to-end benchmark: seeded,
// closed-loop workloads sent over a real loopback HTTP listener to the
// handler ruuserve serves, every reply checked against the serial
// library path. With --trace 1 it reports per-layer numbers instead,
// from the server's own job spans and counters and from a replay of
// the workload's items through the public layer functions.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics. See README.md for the workloads
// and every metric.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ruu"
	"ruu/internal/livermore"
	"ruu/internal/store"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// gcBallast is live heap the run holds but never touches, so it is
// not resident. It paces the garbage collector as a heap of that size
// would. Without it, synth-cold's server, whose live heap is a few
// megabytes, collects dozens of times a second and spends about half
// its CPU doing so, and its throughput varied by 0.19 (IQR/median)
// between runs on a shared 2-vCPU host.
const gcBallast = 64 << 20

// workload is one traffic mix.
type workload struct {
	name string
	// cacheEntries is the Runner's memory cache size (negative: off).
	cacheEntries int
	// warmTasks are sent, untimed, at the end of every setup.
	warmTasks int64
	// perClass is how many replay tasks each sim.ns_per_cycle class
	// needs in the traced run.
	perClass int
	// simulates reports whether the workload's requests run pool jobs
	// (restart-warm's never do).
	simulates bool
	// prepare, when set, builds once per invocation, before the first
	// setup and outside setup_s, what every setup reuses: synth-cold's
	// programs for a window of d, restart-warm's working set and its
	// fixture store in dir.
	prepare func(seed int64, d time.Duration, dir string) (*corpus, error)
	// inputs generates the request sequence.
	inputs func(seed int64, c *corpus) *inputs
}

// corpus is what prepare built.
type corpus struct {
	items []item                       // synth-cold's programs and configurations
	refs  map[refKey][sha256.Size]byte // their serial reference digests
	ws    []item                       // restart-warm's working set, all in the fixture
	// offHeapBytes is the resident size of synth-cold's program texts
	// (offHeap), taken out of peak_rss_mb.
	offHeapBytes int
}

// restart-warm's memory cache holds one table sweep, the baseline and
// the 12 sizes of 14 kernels each: the sweep in progress is in memory,
// the rest of the paper on disk.
var warmCache = (1 + len(ruu.RUUSizes)) * len(livermore.Kernels())

// synthMaxRate is the synth-cold task rate its program pool is sized
// for: more than twice the 650 tasks/s measured on a 2-vCPU host. A run
// whose clients use up the pool is incorrect, never silently shorter.
const synthMaxRate = 1500

// synthWarm is synth-cold's warm pass, in tasks.
const synthWarm = 200

// synthPool is how many programs a synth-cold run of d needs at most.
func synthPool(d time.Duration) int { return synthWarm + int(d.Seconds()*synthMaxRate) }

var workloads = map[string]*workload{
	"paper-sweep": {
		name:         "paper-sweep",
		cacheEntries: -1,
		warmTasks:    8,
		perClass:     2,
		simulates:    true,
		inputs:       func(seed int64, _ *corpus) *inputs { return paperSweepInputs(seed) },
	},
	"synth-cold": {
		name:         "synth-cold",
		cacheEntries: 0, // ruu.DefaultCacheEntries, fewer than a run's programs
		warmTasks:    synthWarm,
		perClass:     8,
		simulates:    true,
		prepare: func(seed int64, d time.Duration, _ string) (*corpus, error) {
			c := &corpus{}
			c.items, c.refs = synthItems(seed, synthPool(d))
			var err error
			c.offHeapBytes, err = offHeap(c.items)
			return c, err
		},
		inputs: func(_ int64, c *corpus) *inputs { return synthColdInputs(c.items) },
	},
	"restart-warm": {
		name:         "restart-warm",
		cacheEntries: warmCache,
		warmTasks:    int64(warmCache), // one sweep
		perClass:     4,
		prepare: func(_ int64, _ time.Duration, dir string) (*corpus, error) {
			c := &corpus{ws: workingSet()}
			return c, buildFixture(c.ws, dir)
		},
		inputs: func(seed int64, _ *corpus) *inputs { return restartWarmInputs(seed) },
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-sweep, synth-cold or restart-warm")
		seed    = flag.Int64("seed", 1, "input seed; request bodies are a pure function of (workload, seed)")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-sweep|synth-cold|restart-warm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-tmp", strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, tmp)
	if rerr := os.RemoveAll(tmp); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(mustJSON(res)))
}

// session is a workload set up and ready for its timed window.
type session struct {
	w      *workload
	c      *corpus
	in     *inputs
	e      *env
	next   atomic.Int64 // next task index
	setupS []float64    // wall seconds of each setup
	openMS []float64    // store.Open milliseconds of each setup
}

// setup builds the workload anew: inputs, (restart-warm: open
// the fixture store and assert it covers the working set), Runner and
// server, then the untimed warm pass.
func (s *session) setup(seed int64, dir string) error {
	t0 := time.Now()
	s.in = s.w.inputs(seed, s.c)
	var st *store.Store
	if len(s.c.ws) > 0 {
		o0 := time.Now()
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return fmt.Errorf("open fixture: %w", err)
		}
		s.openMS = append(s.openMS, float64(time.Since(o0).Nanoseconds())/1e6)
		if err := assertCoverage(st, s.in.configs, s.c.ws); err != nil {
			st.Close()
			return err
		}
	}
	e, err := startEnv(ruu.RunnerConfig{CacheEntries: s.w.cacheEntries}, st)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	s.e = e
	s.next.Store(0)
	if err := e.warm(s.in, &s.next, s.w.warmTasks); err != nil {
		return err
	}
	s.setupS = append(s.setupS, time.Since(t0).Seconds())
	return nil
}

// run sets the workload up setupReps times (keeping the last) and
// measures it.
func run(w *workload, seed int64, d time.Duration, traced bool, tmp string) (*result, error) {
	ballast := make([]byte, gcBallast)
	defer runtime.KeepAlive(ballast)
	dir := filepath.Join(tmp, "store")
	s := &session{w: w, c: &corpus{}}
	if w.prepare != nil {
		var err error
		if s.c, err = w.prepare(seed, d, dir); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	for rep := 0; rep < setupReps; rep++ {
		if s.e != nil {
			if err := s.e.close(); err != nil {
				return nil, err
			}
			s.e = nil
		}
		if err := s.setup(seed, dir); err != nil {
			if s.e != nil {
				s.e.close()
			}
			return nil, err
		}
	}
	defer s.e.close()
	if traced {
		return traceRun(s, seed, d, tmp)
	}

	c0, err := s.e.counters()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	win := s.e.window(s.in, &s.next, d, false, 0)
	rss := peakRSSMB() - float64(s.c.offHeapBytes)/(1<<20)
	c1, err := s.e.counters()
	if err != nil {
		return nil, err
	}
	res := s.check(win.recs, c0, c1, win.exhausted)
	res.Metrics = endToEnd(win, median(s.setupS), rss)
	logRun(w, seed, "window", win, res)
	return res, nil
}

// check runs the output check over recs and, on restart-warm, asserts
// that no simulation ran between counter snapshots c0 and c1. A window
// that ran out of tasks before its deadline makes the run incorrect.
func (s *session) check(recs []record, c0, c1 map[string]float64, exhausted bool) *result {
	reasons := checkRecords(s.in.configs, recs, runtime.GOMAXPROCS(0), s.c.refs)
	res := &result{Correct: true, Attempted: len(recs)}
	for _, n := range reasons {
		res.Failed += n
	}
	if exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: %s: the clients used all %d tasks before the deadline; raise synthMaxRate\n", s.w.name, s.in.limit)
		res.Correct = false
	}
	if !s.w.simulates {
		if n := delta(c0, c1, `ruu_sched_jobs_total{outcome="submitted"}`); n != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v simulations ran in the timed window; every op must hit\n", s.w.name, n)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed: %s\n",
			res.Failed, res.Attempted, strings.Join(topReasons(reasons, 3), "; "))
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}

func delta(c0, c1 map[string]float64, series string) float64 { return c1[series] - c0[series] }

// endToEnd computes the end-to-end metrics of one timed window, whose
// peak resident set was rssMB. A failed request counts as missing any
// latency limit: its latency is the whole window.
func endToEnd(win windowResult, setupS, rssMB float64) map[string]metric {
	secs := win.elapsed.Seconds()
	lat := make([]float64, len(win.recs))
	var instr int64
	failed := 0
	for i, r := range win.recs {
		lat[i] = float64(r.latNS) / 1e6
		if r.fail != "" {
			failed++
			lat[i] = secs * 1e3
			continue
		}
		for _, o := range r.outs {
			instr += o.instr
		}
	}
	n := float64(len(win.recs))
	p90, _ := percentile(lat, 0.9)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"ops_per_s":        {n / secs, "1/s"},
		"lat_p50_ms":       {median(lat), "ms"},
		"lat_p90_ms":       {p90, "ms"},
		"sim_minstr_per_s": {float64(instr) / secs / 1e6, "M/s"},
		"cpu_ms_per_op":    {ratio(float64(win.cpu.Nanoseconds())/1e6, n), "ms"},
		"peak_rss_mb":      {rssMB, "MB"},
		"ok_ratio":         {ratio(n-float64(failed), n), "ratio"},
	}
}

// logRun writes a human summary of a window to standard error: sample
// counts, the p90 tail size, and the metrics.
func logRun(w *workload, seed int64, label string, win windowResult, res *result) {
	lat := make([]float64, 0, len(win.recs))
	for _, r := range win.recs {
		lat = append(lat, float64(r.latNS)/1e6)
	}
	_, beyond := percentile(lat, 0.9)
	note := ""
	if beyond < 10 {
		note = " (fewer than 10 samples beyond p90: tail unsupported)"
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g", k, res.Metrics[k].Value)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d %s: gomaxprocs=%d clients=%d requests=%d beyond_p90=%d%s\nperfbench:%s\n",
		w.name, seed, label, runtime.GOMAXPROCS(0), clients, len(win.recs), beyond, note, b.String())
}

// offHeap moves the program texts of items into one anonymous mapping
// outside the Go heap, kept until the process exits, and returns its
// size. A synth-cold run holds tens of megabytes of them; on the heap
// they would act as GC ballast, pacing the collector on the harness's
// inputs instead of the server's heap, and double their share of the
// resident set.
func offHeap(items []item) (int, error) {
	n := 1
	for _, it := range items {
		n += len(it.prog.src)
	}
	arena, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("map program texts: %w", err)
	}
	for _, it := range items {
		k := copy(arena, it.prog.src)
		it.prog.src = unsafe.String(&arena[0], k)
		arena = arena[k:]
	}
	return n, nil
}

// resetPeakRSS returns the freed heap to the OS and restarts the
// process's resident-set high-water mark (VmHWM) from its current
// resident set, so a later peakRSSMB covers only what ran since:
// not prepare, the setups or the output check.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err = f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// buildFixture populates restart-warm's store through the public
// Runner and store API, with the code under test: every working-set
// item is simulated once and written through to disk.
func buildFixture(ws []item, dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	r := ruu.NewRunner(ruu.RunnerConfig{CacheEntries: len(ws), Store: st})
	cfgs, _ := paperSweeps()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, len(ws))
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ws)); i = next.Add(1) - 1 {
				u, err := ws[i].prog.Unit()
				if err == nil {
					_, err = r.RunProgram(context.Background(), cfgs[ws[i].cfg].config(), u, true)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", ws[i].id(), err)
				}
			}
		}()
	}
	wg.Wait()
	r.Close()
	err = errors.Join(errs...)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// assertCoverage fails unless the store holds every working-set item
// under the key the server will look it up by, so a key change can
// never silently turn hits into re-simulations.
func assertCoverage(st *store.Store, cfgs []tableConfig, ws []item) error {
	missing := 0
	for _, it := range ws {
		u, err := it.prog.Unit()
		if err != nil {
			return err
		}
		if _, ok := st.Get(ruu.ProgramKey(cfgs[it.cfg].config(), u, true)); !ok {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("fixture covers %d of %d working-set items", len(ws)-missing, len(ws))
	}
	return nil
}
