// Command ruubench runs the repository benchmark suite
// (internal/bench — the same workloads as `go test -bench .`) and
// records the results as a schema'd BENCH_<stamp>.json trajectory
// point, so simulator performance is tracked in-repo across commits.
//
// Usage:
//
//	ruubench                          # run suite, write BENCH_<stamp>.json, diff vs newest existing
//	ruubench -benchtime 1x            # one iteration per benchmark (CI smoke)
//	ruubench -run 'Simulator'         # filter by regexp
//	ruubench -out results.json        # explicit output path
//	ruubench -compare OLD.json NEW.json   # no run: diff two files, exit 1 on regression
//	ruubench -checkschema BENCH_*.json    # no run: validate files against the schema
//
// A regression is a benchmark whose ns/op grew by more than -threshold
// (default 1.30, i.e. 30%) against the comparison baseline. The normal
// run mode reports regressions without failing (single-run noise);
// -compare exits non-zero so CI can gate on a deliberate comparison.
// Both diffs also print the median new/old ns/op ratio over the
// benchmarks the two files share, to tell host drift from a real
// regression; it does not affect the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"ruu/internal/bench"
)

// Schema identifies the BENCH_*.json file format; bump it only with a
// migration of the committed trajectory files.
const Schema = "ruu-bench/1"

// File is one trajectory point: an environment header plus one Result
// per benchmark, in suite order.
type File struct {
	Schema     string   `json:"schema"`
	Stamp      string   `json:"stamp"` // UTC, 20060102T150405Z — sorts lexically
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Metrics carries the benchmark's custom ReportMetric values
	// (simcycles/s, speedup, issue-rate, instr/s).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ruubench: ")
	var (
		benchtime   = flag.String("benchtime", "1s", "per-benchmark budget: a duration, or Nx for a fixed iteration count")
		runFilter   = flag.String("run", "", "only run benchmarks matching this regexp")
		out         = flag.String("out", "", "output path (default BENCH_<stamp>.json in -dir)")
		dir         = flag.String("dir", ".", "directory holding the BENCH_*.json trajectory")
		threshold   = flag.Float64("threshold", 1.30, "ns/op growth ratio reported as a regression")
		compareMode = flag.Bool("compare", false, "compare two files (OLD NEW args), exit 1 on regression; no benchmarks run")
		checkSchema = flag.Bool("checkschema", false, "validate the given files against the schema; no benchmarks run")
	)
	flag.Parse()

	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two arguments: OLD.json NEW.json")
		}
		old, err := load(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if n := report(os.Stdout, old, cur, *threshold); n > 0 {
			os.Exit(1)
		}
		return
	case *checkSchema:
		if flag.NArg() == 0 {
			log.Fatal("-checkschema needs at least one file argument")
		}
		bad := 0
		for _, path := range flag.Args() {
			if _, err := load(path); err != nil {
				log.Printf("%v", err)
				bad++
			} else {
				fmt.Printf("%s: ok\n", path)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}

	var filter *regexp.Regexp
	if *runFilter != "" {
		var err error
		filter, err = regexp.Compile(*runFilter)
		if err != nil {
			log.Fatalf("-run: %v", err)
		}
	}
	budget, fixedN, err := parseBenchtime(*benchtime)
	if err != nil {
		log.Fatalf("-benchtime: %v", err)
	}

	f := File{
		Schema:     Schema,
		Stamp:      time.Now().UTC().Format("20060102T150405Z"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range bench.Suite() {
		if filter != nil && !filter.MatchString(bm.Name) {
			continue
		}
		res, err := measure(bm, budget, fixedN)
		if err != nil {
			log.Fatalf("%s: %v", bm.Name, err)
		}
		fmt.Printf("%-28s %8d x %12.0f ns/op %10.1f allocs/op\n",
			res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp)
		f.Benchmarks = append(f.Benchmarks, res)
	}
	if len(f.Benchmarks) == 0 {
		log.Fatal("no benchmarks matched")
	}

	path := *out
	if path == "" {
		path = filepath.Join(*dir, "BENCH_"+f.Stamp+".json")
	}
	prev, prevPath := newestOther(*dir, path)
	if err := save(path, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(f.Benchmarks))
	if prev != nil {
		fmt.Printf("comparing against %s\n", prevPath)
		report(os.Stdout, prev, &f, *threshold)
	}
}

// parseBenchtime accepts a Go-style benchtime: "Nx" for a fixed
// iteration count, otherwise a duration budget.
func parseBenchtime(s string) (time.Duration, int, error) {
	if n := len(s); n > 1 && s[n-1] == 'x' {
		var c int
		if _, err := fmt.Sscanf(s[:n-1], "%d", &c); err != nil || c < 1 {
			return 0, 0, fmt.Errorf("invalid iteration count %q", s)
		}
		return 0, c, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, 0, err
	}
	return d, 0, nil
}

// benchFailure carries a Fatal/Fatalf out of a benchmark body.
type benchFailure struct{ msg string }

// rig is the command-line bench.B: it measures wall time and
// allocations around the workload, honouring ResetTimer the way
// testing.B does (restart both clocks).
type rig struct {
	start        time.Time
	startMallocs uint64
	startBytes   uint64
	metrics      map[string]float64
}

func newRig() *rig {
	r := &rig{metrics: map[string]float64{}}
	r.ResetTimer()
	return r
}

func (r *rig) Fatal(args ...any)                 { panic(benchFailure{fmt.Sprintln(args...)}) }
func (r *rig) Fatalf(format string, args ...any) { panic(benchFailure{fmt.Sprintf(format, args...)}) }
func (r *rig) ReportMetric(n float64, unit string) {
	r.metrics[unit] = n
}
func (r *rig) ResetTimer() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.startMallocs = ms.Mallocs
	r.startBytes = ms.TotalAlloc
	r.start = time.Now()
}
func (r *rig) Elapsed() time.Duration { return time.Since(r.start) }
func (r *rig) Helper()                {}

// runOnce executes n iterations under a fresh rig, returning the rig
// and the workload's failure (if any).
func runOnce(bm bench.Benchmark, n int) (r *rig, elapsed time.Duration, allocs, bytes uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			if bf, ok := p.(benchFailure); ok {
				err = fmt.Errorf("%s", bf.msg)
				return
			}
			panic(p)
		}
	}()
	r = newRig()
	bm.Run(r, n)
	elapsed = r.Elapsed()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs = ms.Mallocs - r.startMallocs
	bytes = ms.TotalAlloc - r.startBytes
	return r, elapsed, allocs, bytes, nil
}

// measure calibrates the iteration count toward the budget (like
// testing.B: grow geometrically until the run fills the budget), or
// runs exactly fixedN iterations when benchtime was "Nx".
func measure(bm bench.Benchmark, budget time.Duration, fixedN int) (Result, error) {
	n := 1
	if fixedN > 0 {
		n = fixedN
	}
	for {
		r, elapsed, allocs, bytes, err := runOnce(bm, n)
		if err != nil {
			return Result{}, err
		}
		if fixedN > 0 || elapsed >= budget || n >= 1_000_000 {
			return Result{
				Name:        bm.Name,
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(allocs) / float64(n),
				BytesPerOp:  float64(bytes) / float64(n),
				Metrics:     r.metrics,
			}, nil
		}
		// Aim 20% past the budget so the next run usually lands it.
		grow := 2.0
		if elapsed > 0 {
			grow = 1.2 * float64(budget) / float64(elapsed)
		}
		next := int(float64(n) * grow)
		if next <= n {
			next = n + 1
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}

// load reads and schema-checks one trajectory file.
func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	if f.Stamp == "" || len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: missing stamp or benchmarks", path)
	}
	for _, r := range f.Benchmarks {
		if r.Name == "" || r.Iterations < 1 || r.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: malformed result %+v", path, r)
		}
	}
	return &f, nil
}

func save(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newestOther returns the lexically newest BENCH_*.json in dir other
// than exclude (stamps sort lexically), or nil when none parses.
func newestOther(dir, exclude string) (*File, string) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, ""
	}
	sort.Sort(sort.Reverse(sort.StringSlice(matches)))
	for _, m := range matches {
		if sameFile(m, exclude) {
			continue
		}
		if f, err := load(m); err == nil {
			return f, m
		}
	}
	return nil, ""
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// report prints the per-benchmark delta, marking benchmarks only the
// new file has as (new) and those only the old file has as (removed),
// and returns the number of regressions (ns/op growth beyond
// threshold).
func report(w io.Writer, old, cur *File, threshold float64) int {
	prev := map[string]Result{}
	for _, r := range old.Benchmarks {
		prev[r.Name] = r
	}
	regressions := 0
	kept := map[string]bool{}
	var ratios []float64
	for _, r := range cur.Benchmarks {
		kept[r.Name] = true
		p, ok := prev[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s (new)\n", r.Name)
			continue
		}
		ratio := r.NsPerOp / p.NsPerOp
		ratios = append(ratios, ratio)
		verdict := ""
		if ratio > threshold {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-28s %12.0f -> %12.0f ns/op  (%+.1f%%)%s\n",
			r.Name, p.NsPerOp, r.NsPerOp, (ratio-1)*100, verdict)
	}
	for _, r := range old.Benchmarks {
		if !kept[r.Name] {
			fmt.Fprintf(w, "%-28s (removed)\n", r.Name)
		}
	}
	if len(ratios) > 0 {
		printDrift(w, ratios)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s) beyond %.0f%% threshold\n", regressions, (threshold-1)*100)
	}
	return regressions
}

// printDrift prints the median new/old ns/op ratio over the benchmarks
// both files hold, and how many got slower or faster. A median far from
// 1 with most benchmarks moving the same way is host drift; one
// regression against a median near 1 is not.
func printDrift(w io.Writer, ratios []float64) {
	slower, faster := 0, 0
	for _, r := range ratios {
		if r > 1 {
			slower++
		} else if r < 1 {
			faster++
		}
	}
	sort.Float64s(ratios)
	n := len(ratios)
	median := ratios[n/2]
	if n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	fmt.Fprintf(w, "median ratio %.3f (%+.1f%%) over %d shared benchmark(s): %d slower, %d faster\n",
		median, (median-1)*100, n, slower, faster)
}
