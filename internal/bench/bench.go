// Package bench is the repository's benchmark suite as a library: the
// same workloads `go test -bench .` runs (bench_test.go delegates
// here), callable from cmd/ruubench without exec'ing the go toolchain,
// so the tracked BENCH_*.json trajectory and the ad-hoc test
// benchmarks can never drift apart.
//
// Each benchmark is a function of (b B, n int): b carries the subset
// of *testing.B the workloads need (fatals, custom metrics, timer
// reset), and n is the iteration count — passed explicitly because
// testing.B.N is a field, not a method. Under `go test` the adapter is
// the *testing.B itself; under cmd/ruubench it is a small rig that
// measures time and allocations around the call.
package bench

import (
	"context"
	"sync"
	"time"

	"ruu"
	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/livermore"
	"ruu/internal/machine"
)

// B is the benchmark context: the methods of *testing.B the suite
// uses, so *testing.B satisfies it directly.
type B interface {
	Fatal(args ...any)
	Fatalf(format string, args ...any)
	ReportMetric(n float64, unit string)
	ResetTimer()
	Elapsed() time.Duration
	Helper()
}

// Benchmark is one named workload.
type Benchmark struct {
	// Name is the benchmark's identifier, matching the Benchmark<Name>
	// function in bench_test.go.
	Name string
	// Run executes n iterations under b.
	Run func(b B, n int)
}

// Suite returns the full benchmark list in its canonical order (the
// order BENCH_*.json files record).
func Suite() []Benchmark {
	return []Benchmark{
		{"Table1", func(b B, n int) { benchConfig(b, n, ruu.Config{Engine: ruu.EngineSimple}) }},
		{"Table2", func(b B, n int) { benchConfig(b, n, ruu.Config{Engine: ruu.EngineRSTU, Entries: 10}) }},
		{"Table2Sweep", benchTable2Sweep},
		{"Table3", func(b B, n int) { benchConfig(b, n, ruu.Config{Engine: ruu.EngineRSTU, Entries: 10, Paths: 2}) }},
		{"Table4", func(b B, n int) {
			benchConfig(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassFull})
		}},
		{"Table5", func(b B, n int) {
			benchConfig(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassNone})
		}},
		{"Table6", func(b B, n int) {
			benchConfig(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassLimited})
		}},
		{"Table7", func(b B, n int) {
			cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 20, Bypass: ruu.BypassFull}
			cfg.Machine.Speculate = true
			benchConfig(b, n, cfg)
		}},
		{"AblationRSOrganisation", benchAblationRSOrganisation},
		{"AblationCounterWidth", benchAblationCounterWidth},
		{"AblationLoadRegs", benchAblationLoadRegs},
		{"SweepSerial", benchSweepSerial},
		{"SweepParallel", benchSweepParallel},
		{"CacheHit", benchCacheHit},
		{"SimulatorRUU", func(b B, n int) { benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 12}) }},
		{"SimulatorRUUSpeculative", func(b B, n int) {
			cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 12}
			cfg.Machine = machine.Config{Speculate: true}
			benchKernelEngine(b, n, cfg)
		}},
		{"SimulatorRSTU", func(b B, n int) { benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineRSTU, Entries: 10}) }},
		{"SimulatorRUU50", func(b B, n int) { benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 50}) }},
		{"SimulatorRSTU50", func(b B, n int) { benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineRSTU, Entries: 50}) }},
		{"SimulatorSimple", func(b B, n int) { benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineSimple}) }},
		{"ProbeOverheadOff", func(b B, n int) {
			benchKernelEngine(b, n, ruu.Config{Engine: ruu.EngineRUU, Entries: 12})
		}},
		{"ProbeOverheadMetrics", func(b B, n int) {
			cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 12}
			cfg.Machine.Probe = ruu.NewMetricsCollector()
			benchKernelEngine(b, n, cfg)
		}},
		{"FunctionalExecutor", benchFunctionalExecutor},
		{"Assembler", benchAssembler},
		{"PreciseInterruptRoundTrip", benchPreciseInterruptRoundTrip},
		{"Ruulint", benchRuulint},
		{"RuulintCheckOnly", benchRuulintCheckOnly},
		{"RuulintWarm", benchRuulintWarm},
		{"DFAAnalyze", benchDFAAnalyze},
		{"BoundTightened", benchBoundTightened},
		{"StoreWrite", benchStoreWrite},
		{"StoreRead", benchStoreRead},
		{"BatchThroughput1", func(b B, n int) { benchBatchThroughput(b, n, 1) }},
		{"BatchThroughput2", func(b B, n int) { benchBatchThroughput(b, n, 2) }},
		{"BatchThroughput4", func(b B, n int) { benchBatchThroughput(b, n, 4) }},
	}
}

// ByName returns the named benchmark, nil when unknown.
func ByName(name string) *Benchmark {
	for _, bm := range Suite() {
		if bm.Name == name {
			return &bm
		}
	}
	return nil
}

var baselineCyclesOnce sync.Once
var baselineCycles int64

func baseline() int64 {
	baselineCyclesOnce.Do(func() {
		runs, err := ruu.RunKernels(ruu.Config{Engine: ruu.EngineSimple})
		if err != nil {
			panic(err)
		}
		baselineCycles = ruu.Totals(runs).Cycles
	})
	return baselineCycles
}

// benchConfig runs the whole kernel suite under cfg once per iteration
// and reports simulated cycles/second plus the table's speedup and
// issue rate.
func benchConfig(b B, n int, cfg ruu.Config) {
	b.Helper()
	base := baseline()
	var total ruu.KernelRun
	for i := 0; i < n; i++ {
		runs, err := ruu.RunKernels(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = ruu.Totals(runs)
	}
	b.ReportMetric(float64(total.Cycles)*float64(n)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(base)/float64(total.Cycles), "speedup")
	b.ReportMetric(total.IssueRate(), "issue-rate")
}

func benchTable2Sweep(b B, n int) {
	for i := 0; i < n; i++ {
		if _, err := ruu.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationRSOrganisation(b B, n int) {
	for i := 0; i < n; i++ {
		if _, err := ruu.AblationRSOrganisation(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationCounterWidth(b B, n int) {
	for i := 0; i < n; i++ {
		if _, err := ruu.AblationCounterWidth(15); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationLoadRegs(b B, n int) {
	for i := 0; i < n; i++ {
		if _, err := ruu.AblationLoadRegs(15); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchSizes keeps the scheduler benchmarks to a representative
// slice of the Table 2 sweep so one iteration stays sub-second.
var sweepBenchSizes = []int{3, 6, 10, 15}

func benchSweepSerial(b B, n int) {
	for i := 0; i < n; i++ {
		if _, err := ruu.Sweep(ruu.Config{Engine: ruu.EngineRSTU}, sweepBenchSizes); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweepParallel(b B, n int) {
	r := ruu.NewRunner(ruu.RunnerConfig{CacheEntries: -1})
	defer r.Close()
	for i := 0; i < n; i++ {
		if _, err := r.Sweep(context.Background(), ruu.Config{Engine: ruu.EngineRSTU}, sweepBenchSizes); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCacheHit(b B, n int) {
	r := ruu.NewRunner(ruu.RunnerConfig{})
	defer r.Close()
	if _, err := r.Sweep(context.Background(), ruu.Config{Engine: ruu.EngineRSTU}, sweepBenchSizes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if _, err := r.Sweep(context.Background(), ruu.Config{Engine: ruu.EngineRSTU}, sweepBenchSizes); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKernelEngine(b B, n int, cfg ruu.Config) {
	b.Helper()
	k := livermore.ByName("LLL1")
	unit, err := k.Unit()
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < n; i++ {
		m, err := ruu.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := k.NewState()
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(unit.Prog, st)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(n)/b.Elapsed().Seconds(), "simcycles/s")
}

func benchFunctionalExecutor(b B, n int) {
	k := livermore.ByName("LLL3")
	unit, err := k.Unit()
	if err != nil {
		b.Fatal(err)
	}
	var executed int64
	for i := 0; i < n; i++ {
		st, err := k.NewState()
		if err != nil {
			b.Fatal(err)
		}
		res, err := st.Run(unit.Prog, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		executed = res.Executed
	}
	b.ReportMetric(float64(executed)*float64(n)/b.Elapsed().Seconds(), "instr/s")
}

func benchAssembler(b B, n int) {
	src := livermore.ByName("LLL8").Source
	for i := 0; i < n; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPreciseInterruptRoundTrip(b B, n int) {
	k := livermore.ByName("LLL12")
	unit, err := k.Unit()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := ruu.NewMachine(ruu.Config{Engine: ruu.EngineRUU, Entries: 12})
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		m.SetFaultInjector(func(pc int, addr int64) *exec.Trap {
			count++
			if count == 500 {
				return &exec.Trap{Kind: exec.TrapPageFault, PC: pc, Addr: addr}
			}
			return nil
		})
		m.SetHandler(func(st *exec.State, ev ruu.InterruptEvent) ruu.InterruptAction {
			return ruu.InterruptAction{Resume: true, ResumePC: ev.Trap.PC}
		})
		st, err := k.NewState()
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(unit.Prog, st)
		if err != nil {
			b.Fatal(err)
		}
		if res.Trap != nil || res.Stats.Interrupts != 1 {
			b.Fatalf("unexpected outcome: trap=%v interrupts=%d", res.Trap, res.Stats.Interrupts)
		}
	}
}
