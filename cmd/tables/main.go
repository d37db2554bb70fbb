// Command tables regenerates every table of the paper's evaluation
// section (and this reproduction's extension and ablation tables) from
// scratch, printing them in the paper's layout.
//
// Usage:
//
//	tables                # all tables
//	tables -table 4       # just Table 4
//	tables -table A1      # ablation A1
//	tables -markdown      # markdown output (for EXPERIMENTS.md)
//	tables -workers 8     # fan kernel runs out across 8 workers
//
// Every table is generated through the simulation service (ruu.Runner):
// the (configuration, kernel) matrix fans out across -workers cores and
// repeated configurations are answered from the content-addressed result
// cache. The output is byte-identical to the serial path at any worker
// count (golden-tested in service_test.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"ruu"
	"ruu/internal/report"
)

// paperSpeedups holds the paper's published speedup columns for
// side-by-side comparison.
var paperSpeedups = map[string]map[int]float64{
	"2": {3: 0.965, 4: 1.140, 5: 1.294, 6: 1.424, 7: 1.479, 8: 1.553, 9: 1.587, 10: 1.642, 15: 1.763, 20: 1.798, 25: 1.820, 30: 1.821},
	"3": {3: 0.976, 4: 1.155, 5: 1.310, 6: 1.442, 7: 1.515, 8: 1.586, 9: 1.634, 10: 1.667, 15: 1.796, 20: 1.832, 25: 1.843, 30: 1.845},
	"4": {3: 0.853, 4: 0.937, 6: 1.077, 8: 1.246, 10: 1.378, 12: 1.502, 15: 1.597, 20: 1.668, 25: 1.713, 30: 1.755, 40: 1.780, 50: 1.786},
	"5": {3: 0.825, 4: 0.906, 6: 1.030, 8: 1.070, 10: 1.102, 12: 1.190, 15: 1.212, 20: 1.291, 25: 1.337, 30: 1.365, 40: 1.447, 50: 1.475},
	"6": {3: 0.846, 4: 0.928, 6: 1.064, 8: 1.115, 10: 1.266, 12: 1.303, 15: 1.420, 20: 1.448, 25: 1.484, 30: 1.505, 40: 1.518, 50: 1.547},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	table := flag.String("table", "", "table to regenerate: 1-7, A1, A2, A3, A4, A5 (default: all)")
	markdown := flag.Bool("markdown", false, "emit markdown instead of aligned text")
	csv := flag.Bool("csv", false, "emit comma-separated values (for plotting)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the simulation scheduler (1 = serial)")
	cachesize := flag.Int("cachesize", ruu.DefaultCacheEntries, "result-cache capacity in entries (0 = default, negative = disabled: no content key is computed and identical concurrent submissions each run)")
	flag.Parse()

	ctx := context.Background()
	runner := ruu.NewRunner(ruu.RunnerConfig{Workers: *workers, CacheEntries: *cachesize})
	defer runner.Close()

	emit := func(t *report.Table) {
		switch {
		case *csv:
			t.WriteCSV(os.Stdout)
		case *markdown:
			t.WriteMarkdown(os.Stdout)
		default:
			t.WriteText(os.Stdout)
		}
		fmt.Println()
	}

	want := func(name string) bool {
		return *table == "" || strings.EqualFold(*table, name)
	}

	if want("1") {
		rows, err := runner.Table1(ctx)
		if err != nil {
			log.Fatal(err)
		}
		t := report.New("Table 1: Statistics for the Benchmark Programs (simple issue)",
			"Benchmark", "Instructions", "Clock Cycles", "Issue Rate")
		for _, r := range rows {
			t.Add(r.Kernel, r.Instructions, r.Cycles, r.IssueRate)
		}
		emit(t)
	}

	sweeps := []struct {
		id    string
		title string
		f     func(context.Context) ([]ruu.SpeedupRow, error)
	}{
		{"2", "Table 2: Relative Speedup and Issue Rate with a RSTU", runner.Table2},
		{"3", "Table 3: RSTU with 2 Data Paths", runner.Table3},
		{"4", "Table 4: RUU with Bypass Logic", runner.Table4},
		{"5", "Table 5: RUU without Bypass Logic", runner.Table5},
		{"6", "Table 6: RUU with Limited Bypass Logic (A future file)", runner.Table6},
		{"7", "Table 7 (extension): RUU with Branch Prediction and Conditional Execution", runner.Table7},
	}
	for _, s := range sweeps {
		if !want(s.id) {
			continue
		}
		rows, err := s.f(ctx)
		if err != nil {
			log.Fatal(err)
		}
		emitSweep(emit, s.id, s.title, rows)
	}

	ablations := []struct {
		id    string
		title string
		f     func(context.Context) ([]ruu.AblationRow, error)
	}{
		{"A1", "Ablation A1: Reservation-Station Organisations (§3.1-§3.2.3, §5)",
			runner.AblationRSOrganisation},
		{"A4", "Ablation A4: Precise-Interrupt Schemes (Smith & Pleszkun vs the RUU, 12 entries)",
			func(ctx context.Context) ([]ruu.AblationRow, error) { return runner.AblationPreciseSchemes(ctx, 12) }},
		{"A5", "Ablation A5: Instruction-Buffer Fetch Model (RUU 12, full bypass)",
			func(ctx context.Context) ([]ruu.AblationRow, error) {
				return runner.AblationInstructionBuffers(ctx, 12)
			}},
		{"A2", "Ablation A2: NI/LI Counter Width (RUU 15, full bypass)",
			func(ctx context.Context) ([]ruu.AblationRow, error) { return runner.AblationCounterWidth(ctx, 15) }},
		{"A3", "Ablation A3: Number of Load Registers (RUU 15, full bypass)",
			func(ctx context.Context) ([]ruu.AblationRow, error) { return runner.AblationLoadRegs(ctx, 15) }},
	}
	for _, a := range ablations {
		if !want(a.id) {
			continue
		}
		rows, err := a.f(ctx)
		if err != nil {
			log.Fatal(err)
		}
		t := report.New(a.title, "Configuration", "Relative Speedup", "Issue Rate")
		for _, r := range rows {
			t.Add(r.Label, r.Speedup, r.IssueRate)
		}
		emit(t)
	}
}

func emitSweep(emit func(*report.Table), id, title string, rows []ruu.SpeedupRow) {
	paper := paperSpeedups[id]
	cols := []string{"Entries", "Relative Speedup", "Issue Rate"}
	if paper != nil {
		cols = append(cols, "Paper Speedup")
	}
	// The dataflow limit (internal/dfa) is the speedup ceiling for the
	// sweep's machine timing: no entry count can exceed it.
	cols = append(cols, "Dataflow Limit")
	t := report.New(title, cols...)
	for _, r := range rows {
		if paper != nil {
			t.Add(r.Entries, r.Speedup, r.IssueRate, paper[r.Entries], r.Limit)
		} else {
			t.Add(r.Entries, r.Speedup, r.IssueRate, r.Limit)
		}
	}
	emit(t)
}
