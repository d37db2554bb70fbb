package ruu

import (
	"context"
	"fmt"

	"ruu/internal/machine"

	"ruu/internal/dfa"
	"ruu/internal/fu"
	"ruu/internal/isa"
	"ruu/internal/livermore"
)

// This file is the experiment harness: it regenerates every table of the
// paper's evaluation (and this reproduction's extension/ablation tables)
// from scratch. See DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Every generator here delegates to the serial (nil-pool) Runner; the
// scheduler-backed parallel versions are the Runner methods in
// service.go, which produce byte-identical output (golden-tested in
// service_test.go).

// KernelRun is the outcome of one kernel under one configuration.
type KernelRun struct {
	Kernel       string
	Instructions int64
	Cycles       int64
}

// IssueRate returns instructions per cycle.
func (k KernelRun) IssueRate() float64 {
	if k.Cycles == 0 {
		return 0
	}
	return float64(k.Instructions) / float64(k.Cycles)
}

// RunKernels executes every Livermore kernel under cfg, verifying each
// final state against the kernel's Go mirror (an experiment that
// produces wrong answers is not an experiment). The functional
// executor is checked against the same mirror by the livermore tests,
// not here.
func RunKernels(cfg Config) ([]KernelRun, error) {
	return serialRunner.RunKernels(context.Background(), cfg)
}

func runKernel(cfg Config, k *livermore.Kernel) (KernelRun, error) {
	u, err := k.Unit()
	if err != nil {
		return KernelRun{}, fmt.Errorf("%s: %w", k.Name, err)
	}
	st, err := k.NewState()
	if err != nil {
		return KernelRun{}, fmt.Errorf("%s: %w", k.Name, err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return KernelRun{}, err
	}
	res, err := m.Run(u.Prog, st)
	if err != nil {
		return KernelRun{}, fmt.Errorf("%s: %w", k.Name, err)
	}
	if res.Trap != nil {
		return KernelRun{}, fmt.Errorf("%s: unexpected trap %v", k.Name, res.Trap)
	}
	if err := k.Verify(st); err != nil {
		return KernelRun{}, fmt.Errorf("%s: wrong answer under %s: %w", k.Name, cfg.Engine, err)
	}
	return KernelRun{Kernel: k.Name, Instructions: res.Stats.Instructions, Cycles: res.Stats.Cycles}, nil
}

// Totals sums a run set, computing the aggregate issue rate the way the
// paper does: total instructions over total cycles, not a mean of rates.
func Totals(runs []KernelRun) KernelRun {
	t := KernelRun{Kernel: "Total"}
	for _, r := range runs {
		t.Instructions += r.Instructions
		t.Cycles += r.Cycles
	}
	return t
}

// Table1Row is one row of Table 1: baseline statistics per kernel.
type Table1Row struct {
	Kernel       string
	Instructions int64
	Cycles       int64
	IssueRate    float64
}

// Table1 reproduces Table 1: the simple issue mechanism on each of the
// 14 kernels, plus the total.
func Table1() ([]Table1Row, error) {
	return serialRunner.Table1(context.Background())
}

// SpeedupRow is one row of the size-sweep tables (Tables 2-7): an entry
// count, the speedup relative to simple issue (total cycles ratio over
// the whole kernel suite), the aggregate instruction issue rate, and
// the dataflow-limit speedup — the ceiling no entry count can exceed
// (internal/dfa's oracle; constant down a sweep since it depends only
// on the machine timing, not on the issue mechanism).
type SpeedupRow struct {
	Entries   int
	Speedup   float64
	IssueRate float64
	Limit     float64
}

// DataflowLimit sums the per-kernel dataflow limits (internal/dfa's
// latency-weighted critical path over the dynamic trace) across the
// whole kernel suite under the given machine timing. Zero-value timing
// fields take the machine defaults, matching what NewMachine runs with.
func DataflowLimit(mcfg MachineConfig) (int64, error) {
	d := machine.DefaultConfig()
	bcfg := dfa.BoundConfig{Lat: mcfg.Lat, FwdLatency: mcfg.FwdLatency}
	if bcfg.Lat == (fu.Latencies{}) {
		bcfg.Lat = d.Lat
	}
	if bcfg.FwdLatency <= 0 {
		bcfg.FwdLatency = d.FwdLatency
	}
	var total int64
	for _, k := range livermore.Kernels() {
		u, err := k.Unit()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
		st, err := k.NewState()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
		b, err := dfa.ComputeBound(u.Prog, st, bcfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
		if b.Trap != nil {
			return 0, fmt.Errorf("%s: bound replay trapped: %v", k.Name, b.Trap)
		}
		total += b.Cycles
	}
	return total, nil
}

// Sweep runs the kernel suite at each entry count, with cfg as the
// template (its Entries field is overwritten), and reports speedups
// relative to the simple baseline, alongside the dataflow-limit
// ceiling.
func Sweep(cfg Config, sizes []int) ([]SpeedupRow, error) {
	return serialRunner.Sweep(context.Background(), cfg, sizes)
}

// The paper's sweep sizes.
var (
	// RSTUSizes are the entry counts of Tables 2 and 3, from the
	// canonical sweep list in internal/isa/paperconst.go.
	RSTUSizes = append([]int(nil), isa.PaperRSTUSizes[:]...)
	// RUUSizes are the entry counts of Tables 4, 5 and 6.
	RUUSizes = append([]int(nil), isa.PaperRUUSizes[:]...)
)

// Table2 reproduces Table 2: RSTU speedup and issue rate, one dispatch
// path.
func Table2() ([]SpeedupRow, error) { return serialRunner.Table2(context.Background()) }

// Table3 reproduces Table 3: RSTU with two dispatch paths (one issue
// unit, one result bus, one path to the register file).
func Table3() ([]SpeedupRow, error) { return serialRunner.Table3(context.Background()) }

// Table4 reproduces Table 4: RUU with bypass logic.
func Table4() ([]SpeedupRow, error) { return serialRunner.Table4(context.Background()) }

// Table5 reproduces Table 5: RUU without bypass logic.
func Table5() ([]SpeedupRow, error) { return serialRunner.Table5(context.Background()) }

// Table6 reproduces Table 6: RUU with limited bypass logic (the A
// register file duplicated as a future file).
func Table6() ([]SpeedupRow, error) { return serialRunner.Table6(context.Background()) }

// Table7 is this reproduction's extension experiment (the paper's §7
// future work): the RUU with branch prediction and conditional execution.
func Table7() ([]SpeedupRow, error) { return serialRunner.Table7(context.Background()) }

// AblationRow is one row of an ablation table.
type AblationRow struct {
	Label     string
	Speedup   float64
	IssueRate float64
}

// AblationRSOrganisation compares the reservation-station organisations
// of §3.1-§3.2.3 at matched total station counts (A1 in DESIGN.md).
func AblationRSOrganisation() ([]AblationRow, error) {
	return serialRunner.AblationRSOrganisation(context.Background())
}

func ablationRSOrganisationConfigs() []labeledConfig {
	return []labeledConfig{
		{"tomasulo (2/unit, per-register tags)", Config{Engine: EngineTomasulo, Entries: 2}},
		{"tag unit (2/unit, TU=20)", Config{Engine: EngineTagUnit, Entries: 2, TagUnitSize: 20}},
		{"RS pool (10, TU=20)", Config{Engine: EngineRSPool, Entries: 10, TagUnitSize: 20}},
		{"RSTU (10)", Config{Engine: EngineRSTU, Entries: 10}},
		{"RSTU (20)", Config{Engine: EngineRSTU, Entries: 20}},
		{"RUU (10, bypass)", Config{Engine: EngineRUU, Entries: 10, Bypass: BypassFull}},
		{"RUU (20, bypass)", Config{Engine: EngineRUU, Entries: 20, Bypass: BypassFull}},
	}
}

// AblationPreciseSchemes compares the precise-interrupt design space the
// paper's §4-§5 argue about (A4 in DESIGN.md): in-order issue with the
// Smith & Pleszkun reorder-buffer schemes against the RUU, which gets
// out-of-order issue and preciseness from one structure.
func AblationPreciseSchemes(size int) ([]AblationRow, error) {
	return serialRunner.AblationPreciseSchemes(context.Background(), size)
}

func ablationPreciseSchemesConfigs(size int) []labeledConfig {
	return []labeledConfig{
		{"simple issue (in-order, imprecise)", Config{Engine: EngineSimple}},
		{"reorder buffer (in-order, precise)", Config{Engine: EngineReorder, Entries: size}},
		{"reorder buffer + bypass", Config{Engine: EngineReorderBypass, Entries: size}},
		{"reorder buffer + future file", Config{Engine: EngineReorderFuture, Entries: size}},
		{"RSTU (out-of-order, imprecise)", Config{Engine: EngineRSTU, Entries: size}},
		{"RUU with bypass (out-of-order, precise)", Config{Engine: EngineRUU, Entries: size, Bypass: BypassFull}},
	}
}

// AblationInstructionBuffers checks the paper's assumption (iii) — "the
// instructions are already present in the instruction buffers" — by
// enabling the CRAY-1-style buffer fetch model (A5 in DESIGN.md): with
// CRAY-sized buffers the kernels incur only cold fills and the speedups
// are unchanged; with tiny buffers the loops thrash.
func AblationInstructionBuffers(size int) ([]AblationRow, error) {
	return serialRunner.AblationInstructionBuffers(context.Background(), size)
}

func ablationInstructionBuffersConfigs(size int) []labeledConfig {
	mcfgs := []struct {
		label string
		mcfg  machine.Config
	}{
		{"ideal fetch (the paper's assumption)", machine.Config{}},
		{"4 x 64-parcel buffers (CRAY-1)", machine.Config{InstructionBuffers: true, IBufCount: 4, IBufParcels: 64}},
		{"4 x 16-parcel buffers", machine.Config{InstructionBuffers: true, IBufCount: 4, IBufParcels: 16}},
		{"2 x 8-parcel buffers", machine.Config{InstructionBuffers: true, IBufCount: 2, IBufParcels: 8}},
	}
	cfgs := make([]labeledConfig, 0, len(mcfgs))
	for _, c := range mcfgs {
		cfgs = append(cfgs, labeledConfig{c.label,
			Config{Engine: EngineRUU, Entries: size, Bypass: BypassFull, Machine: c.mcfg}})
	}
	return cfgs
}

// AblationCounterWidth sweeps the NI/LI counter width n (the paper used
// 3 bits, noting 7 instances always sufficed) at a fixed RUU size (A2).
func AblationCounterWidth(size int) ([]AblationRow, error) {
	return serialRunner.AblationCounterWidth(context.Background(), size)
}

func ablationCounterWidthConfigs(size int) []labeledConfig {
	var cfgs []labeledConfig
	for bits := 1; bits <= 4; bits++ {
		cfgs = append(cfgs, labeledConfig{
			fmt.Sprintf("n=%d (max %d instances)", bits, (1<<bits)-1),
			Config{Engine: EngineRUU, Entries: size, Bypass: BypassFull, CounterBits: bits},
		})
	}
	return cfgs
}

// AblationLoadRegs sweeps the number of load registers (the paper used 6,
// noting 4 sufficed for most cases) at a fixed RUU size (A3).
func AblationLoadRegs(size int) ([]AblationRow, error) {
	return serialRunner.AblationLoadRegs(context.Background(), size)
}

func ablationLoadRegsConfigs(size int) []labeledConfig {
	var cfgs []labeledConfig
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		cfg := Config{Engine: EngineRUU, Entries: size, Bypass: BypassFull}
		cfg.Machine.LoadRegs = n
		cfgs = append(cfgs, labeledConfig{fmt.Sprintf("%d load registers", n), cfg})
	}
	return cfgs
}
