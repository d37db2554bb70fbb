package ruu_test

import (
	"testing"

	"ruu/internal/bench"
)

// The benchmark bodies live in internal/bench so cmd/ruubench can run
// the identical workloads and record the tracked BENCH_*.json
// trajectory; these wrappers keep the familiar `go test -bench .`
// names. *testing.B satisfies bench.B directly — only the iteration
// count is passed explicitly (testing.B.N is a field, not a method).

func runBench(b *testing.B, name string) {
	b.Helper()
	bm := bench.ByName(name)
	if bm == nil {
		b.Fatalf("no benchmark %q in the suite", name)
	}
	bm.Run(b, b.N)
}

// BenchmarkTable1 is the baseline: simple issue over LLL1-LLL14.
func BenchmarkTable1(b *testing.B) { runBench(b, "Table1") }

// BenchmarkTable2 is the RSTU at the paper's knee size (10 entries);
// the full size sweep is cmd/tables -table 2.
func BenchmarkTable2(b *testing.B) { runBench(b, "Table2") }

// BenchmarkTable2Sweep regenerates every row of Table 2 per iteration.
func BenchmarkTable2Sweep(b *testing.B) { runBench(b, "Table2Sweep") }

// BenchmarkTable3 is the two-dispatch-path RSTU.
func BenchmarkTable3(b *testing.B) { runBench(b, "Table3") }

// BenchmarkTable4 is the RUU with bypass logic at the paper's
// recommended size (10-12 entries).
func BenchmarkTable4(b *testing.B) { runBench(b, "Table4") }

// BenchmarkTable5 is the RUU without bypass logic.
func BenchmarkTable5(b *testing.B) { runBench(b, "Table5") }

// BenchmarkTable6 is the RUU with the A-register future file.
func BenchmarkTable6(b *testing.B) { runBench(b, "Table6") }

// BenchmarkTable7 is the §7 extension: speculative RUU.
func BenchmarkTable7(b *testing.B) { runBench(b, "Table7") }

// BenchmarkAblationRSOrganisation exercises the §3 organisation ladder
// (Tomasulo → TU → pool → RSTU → RUU) once per iteration.
func BenchmarkAblationRSOrganisation(b *testing.B) { runBench(b, "AblationRSOrganisation") }

// BenchmarkAblationCounterWidth sweeps the NI/LI counter width.
func BenchmarkAblationCounterWidth(b *testing.B) { runBench(b, "AblationCounterWidth") }

// BenchmarkAblationLoadRegs sweeps the load-register count.
func BenchmarkAblationLoadRegs(b *testing.B) { runBench(b, "AblationLoadRegs") }

// BenchmarkSweepSerial is the baseline: the Table 2-style sweep on the
// calling goroutine (nil pool), exactly what the package-level Sweep
// runs.
func BenchmarkSweepSerial(b *testing.B) { runBench(b, "SweepSerial") }

// BenchmarkSweepParallel is the same sweep fanned out across
// GOMAXPROCS workers with the result cache disabled, so every
// iteration re-simulates (speedup over BenchmarkSweepSerial ≈ core
// count; ~1.0x on a single-core host). Output equality with the serial
// path is golden-tested in service_test.go.
func BenchmarkSweepParallel(b *testing.B) { runBench(b, "SweepParallel") }

// BenchmarkCacheHit measures a fully-cached sweep: after one warm run,
// every (config, kernel) job is answered from the content-addressed
// cache, so an iteration costs key hashing plus lookups — no
// simulation.
func BenchmarkCacheHit(b *testing.B) { runBench(b, "CacheHit") }

// BenchmarkSimulatorRUU measures raw RUU simulation speed on one kernel.
func BenchmarkSimulatorRUU(b *testing.B) { runBench(b, "SimulatorRUU") }

// BenchmarkSimulatorRUUSpeculative measures the speculative RUU.
func BenchmarkSimulatorRUUSpeculative(b *testing.B) { runBench(b, "SimulatorRUUSpeculative") }

// BenchmarkSimulatorRSTU measures RSTU simulation speed.
func BenchmarkSimulatorRSTU(b *testing.B) { runBench(b, "SimulatorRSTU") }

// BenchmarkSimulatorRUU50 and BenchmarkSimulatorRSTU50 measure the same
// kernel at 50 entries, the paper's largest window: beside the 12- and
// 10-entry benchmarks they show how the per-cycle cost scales with size.
func BenchmarkSimulatorRUU50(b *testing.B) { runBench(b, "SimulatorRUU50") }

func BenchmarkSimulatorRSTU50(b *testing.B) { runBench(b, "SimulatorRSTU50") }

// BenchmarkSimulatorSimple measures baseline-engine simulation speed.
func BenchmarkSimulatorSimple(b *testing.B) { runBench(b, "SimulatorSimple") }

// BenchmarkProbeOverhead compares a kernel run with no probe attached
// (the nil fast path) against the same run feeding the metrics
// collector, so the cost of observability is a visible benchmark delta
// rather than a silent regression.
func BenchmarkProbeOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { runBench(b, "ProbeOverheadOff") })
	b.Run("metrics", func(b *testing.B) { runBench(b, "ProbeOverheadMetrics") })
}

// BenchmarkFunctionalExecutor measures the golden-reference interpreter.
func BenchmarkFunctionalExecutor(b *testing.B) { runBench(b, "FunctionalExecutor") }

// BenchmarkAssembler measures assembly throughput on the largest kernel.
func BenchmarkAssembler(b *testing.B) { runBench(b, "Assembler") }

// BenchmarkPreciseInterruptRoundTrip measures fault-flush-resume cost.
func BenchmarkPreciseInterruptRoundTrip(b *testing.B) { runBench(b, "PreciseInterruptRoundTrip") }

// BenchmarkRuulint measures one full ruulint invocation (module load,
// shared snapshot, every pass) — the ruulint_ns trajectory point. The
// single-invocation `make lint` pays this once where the previous
// two-run Makefile paid it twice.
func BenchmarkRuulint(b *testing.B) { runBench(b, "Ruulint") }

// BenchmarkRuulintCheckOnly isolates the pass run over a cached load:
// the phase the shared snapshot/callgraph cache optimises.
func BenchmarkRuulintCheckOnly(b *testing.B) { runBench(b, "RuulintCheckOnly") }

// BenchmarkRuulintWarm measures a full-hit incremental-cache run on an
// unchanged tree — the ruulint_warm_ns trajectory point, i.e. what
// `make lint` costs when nothing changed.
func BenchmarkRuulintWarm(b *testing.B) { runBench(b, "RuulintWarm") }

// BenchmarkDFAAnalyze measures the full static analysis (abstract
// interpretation, value-aware lint, memory-dependence summary) over
// the kernel suite — the pre-replay work of ruudfa and /v1/analyze.
func BenchmarkDFAAnalyze(b *testing.B) { runBench(b, "DFAAnalyze") }

// BenchmarkBoundTightened measures the dataflow-limit replay with the
// memory-dependence tightening on (the default oracle).
func BenchmarkBoundTightened(b *testing.B) { runBench(b, "BoundTightened") }

// BenchmarkStoreWrite measures persistent-store Put throughput: the
// encode, tmp+rename, fsync, and index-append cost per entry.
func BenchmarkStoreWrite(b *testing.B) { runBench(b, "StoreWrite") }

// BenchmarkStoreRead measures persistent-store Get throughput over a
// warm working set (decode plus checksum verification per hit).
func BenchmarkStoreRead(b *testing.B) { runBench(b, "StoreRead") }

// BenchmarkBatchThroughput posts the canonical six-item /v1/batch
// request through the real HTTP handler with the cache disabled, at
// pool widths 1, 2, and 4, so batch-path scaling is a tracked number.
func BenchmarkBatchThroughput(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { runBench(b, "BatchThroughput1") })
	b.Run("workers=2", func(b *testing.B) { runBench(b, "BatchThroughput2") })
	b.Run("workers=4", func(b *testing.B) { runBench(b, "BatchThroughput4") })
}
