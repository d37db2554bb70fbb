// Package ruu is a cycle-accurate reproduction of the system of
// G. S. Sohi, "Instruction Issue Logic for High-Performance,
// Interruptible, Multiple Functional Unit, Pipelined Computers"
// (UW-Madison CS TR #704, 1987 / ISCA 1987): a CRAY-1-like scalar model
// architecture together with the full family of instruction-issue
// mechanisms the paper studies — simple in-order issue, Tomasulo's
// algorithm, the Tag Unit variants, the RSTU, and the Register Update
// Unit (RUU), which resolves dependencies and provides precise
// interrupts with one structure.
//
// The package exposes the high-level API: build a machine from a Config,
// assemble programs, and run them to obtain statistics and final
// architectural state. The building blocks live under internal/ (see
// DESIGN.md for the map).
//
// Quick start:
//
//	unit, _ := ruu.Assemble(src)
//	m, _ := ruu.NewMachine(ruu.Config{Engine: ruu.EngineRUU, Entries: 12})
//	res, _ := m.Run(unit.Prog, exec.NewState(unit.NewMemory()))
//	fmt.Println(res.Stats.IssueRate())
package ruu

import (
	"fmt"
	"io"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue"
	"ruu/internal/issue/reorder"
	"ruu/internal/issue/simple"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
	"ruu/internal/obs"
)

// EngineKind selects an instruction-issue mechanism.
type EngineKind string

const (
	// EngineSimple is in-order issue with register busy bits (the
	// paper's Table 1 baseline).
	EngineSimple EngineKind = "simple"
	// EngineTomasulo is Tomasulo's algorithm with per-register tags and
	// distributed reservation stations (§3.1).
	EngineTomasulo EngineKind = "tomasulo"
	// EngineTagUnit is a separate Tag Unit with distributed reservation
	// stations (§3.2.1, Figure 2).
	EngineTagUnit EngineKind = "tagunit"
	// EngineRSPool is a Tag Unit with a merged reservation-station pool
	// (§3.2.2).
	EngineRSPool EngineKind = "rspool"
	// EngineRSTU is the merged RS Tag Unit (§3.2.3, Tables 2-3).
	EngineRSTU EngineKind = "rstu"
	// EngineRUU is the Register Update Unit (§5, Tables 4-6).
	EngineRUU EngineKind = "ruu"
	// EngineReorder is a simple reorder buffer after Smith & Pleszkun
	// (the paper's §4 prior art): in-order issue, precise interrupts,
	// aggravated dependencies.
	EngineReorder EngineKind = "reorder"
	// EngineReorderBypass is the reorder buffer with bypass paths.
	EngineReorderBypass EngineKind = "reorder-bypass"
	// EngineReorderFuture is the reorder buffer with a future file.
	EngineReorderFuture EngineKind = "reorder-future"
)

// BypassKind selects the RUU bypass organisation.
type BypassKind string

const (
	// BypassFull reads completed results out of the RUU (Table 4).
	BypassFull BypassKind = "full"
	// BypassNone relies on result-bus and commit-bus monitoring
	// (Table 5).
	BypassNone BypassKind = "none"
	// BypassLimited adds an A-register future file (Table 6).
	BypassLimited BypassKind = "limited"
)

// Re-exported types: the stable public names for the run-facing types of
// the internal packages.
type (
	// Machine drives an issue engine through the shared pipeline frame.
	Machine = machine.Machine
	// MachineConfig parameterises the shared frame (latencies, branch
	// penalties, load registers, speculation).
	MachineConfig = machine.Config
	// Stats aggregates one run's counters.
	Stats = machine.Stats
	// Result summarises a run.
	Result = machine.Result
	// InterruptEvent reports a trap reaching the architectural boundary.
	InterruptEvent = machine.InterruptEvent
	// InterruptAction tells the machine how to continue after a handled
	// interrupt.
	InterruptAction = machine.InterruptAction
	// Handler is an interrupt handler.
	Handler = machine.Handler
	// State is the architectural state (registers, memory, PC).
	State = exec.State
	// Trap is an instruction-generated trap.
	Trap = exec.Trap
	// Unit is an assembled program with data image and symbols.
	Unit = asm.Unit
	// Engine is the interface all issue mechanisms implement.
	Engine = issue.Engine
)

// Re-exported observability types (internal/obs): attach a Probe via
// MachineConfig.Probe to receive the pipeline lifecycle event stream.
type (
	// Probe receives pipeline lifecycle events and per-cycle samples.
	Probe = obs.Probe
	// ProbeEvent is one lifecycle event (fetch … commit/squash).
	ProbeEvent = obs.Event
	// ProbeSample is a per-cycle occupancy snapshot.
	ProbeSample = obs.Sample
	// ProbeKind classifies lifecycle events.
	ProbeKind = obs.Kind
	// MetricsCollector is a probe aggregating histograms and counters.
	MetricsCollector = obs.Metrics
	// MetricsSummary is the JSON-friendly rendering of the metrics.
	MetricsSummary = obs.Summary
	// ChromeTracer is a probe writing Chrome trace-event JSON (Perfetto).
	ChromeTracer = obs.ChromeTracer
	// PipeViewer is a probe rendering a textual pipeline timeline.
	PipeViewer = obs.PipeViewer
	// ProbeRecorder is a probe storing the whole stream (tests, tools).
	ProbeRecorder = obs.Recorder
)

// Re-exported lifecycle-event kinds.
const (
	KindFetch     = obs.KindFetch
	KindDecode    = obs.KindDecode
	KindIssue     = obs.KindIssue
	KindDispatch  = obs.KindDispatch
	KindExecute   = obs.KindExecute
	KindWriteback = obs.KindWriteback
	KindCommit    = obs.KindCommit
	KindSquash    = obs.KindSquash
	KindStall     = obs.KindStall
	KindTrap      = obs.KindTrap
)

// NewMetricsCollector returns a metrics probe wired to this machine's
// stall-reason names.
func NewMetricsCollector() *MetricsCollector {
	return obs.NewMetrics(issue.StallNames())
}

// NewChromeTracer returns a probe writing Chrome trace-event JSON to w;
// open the output in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Call Close after the run to terminate the document.
func NewChromeTracer(w io.Writer) *ChromeTracer { return obs.NewChromeTracer(w) }

// NewPipeViewer returns a probe rendering one timeline line per
// committed (or squashed) instruction, stopping after limit instructions
// (0 = unlimited). Call Close after the run.
func NewPipeViewer(w io.Writer, limit int) *PipeViewer { return obs.NewPipeViewer(w, limit) }

// NewProbeRecorder returns a probe recording the full event stream.
func NewProbeRecorder() *ProbeRecorder { return obs.NewRecorder() }

// CombineProbes fans one event stream out to several probes; nils are
// dropped, and the result is nil when none remain (keeping the
// no-observer fast path).
func CombineProbes(probes ...Probe) Probe { return obs.Combine(probes...) }

// StallNames returns the stall-reason names indexed by stall code (the
// Stall field of a KindStall ProbeEvent).
func StallNames() []string { return issue.StallNames() }

// Disasm returns a disassembler for the unit's program, suitable for
// ChromeTracer.SetDisasm / PipeViewer.SetDisasm.
func Disasm(u *Unit) func(pc int) string {
	return func(pc int) string {
		if u == nil || pc < 0 || pc >= len(u.Prog.Instructions) {
			return ""
		}
		return u.Prog.Instructions[pc].String()
	}
}

// Config selects and sizes an issue mechanism plus the machine frame.
type Config struct {
	// Engine picks the issue mechanism (default EngineRUU).
	Engine EngineKind
	// Entries sizes the mechanism: RSTU/RUU entries, RS-pool size for
	// EngineRSPool, or stations per functional unit for
	// EngineTomasulo/EngineTagUnit. Defaults are per-engine.
	Entries int
	// Paths is the number of RSTU dispatch paths (Table 3; default 1).
	Paths int
	// TagUnitSize caps active tags for EngineTagUnit/EngineRSPool
	// (default 20).
	TagUnitSize int
	// Bypass selects the RUU organisation (default BypassFull).
	Bypass BypassKind
	// CounterBits is the RUU NI/LI counter width (default 3).
	CounterBits int
	// CommitWidth is the RUU commit width (default 1).
	CommitWidth int
	// Machine holds the shared frame parameters; zero values take
	// defaults (machine.DefaultConfig).
	Machine MachineConfig
}

// MaxSize bounds each sizing setting of a Config — Entries,
// TagUnitSize, Paths and Machine.LoadRegs. It is far above the paper's
// largest configuration (a 50-entry RUU) and the 2048-entry window that
// stands in for an unbounded RUU in the dataflow-limit comparisons, and
// low enough that an absurd size is an error rather than an attempt to
// allocate gigabytes.
const MaxSize = 4096

// NewEngine builds the configured issue engine.
func NewEngine(cfg Config) (Engine, error) {
	for _, s := range [...]struct {
		name string
		v    int
	}{
		{"entries", cfg.Entries},
		{"tag unit size", cfg.TagUnitSize},
		{"paths", cfg.Paths},
		{"load registers", cfg.Machine.LoadRegs},
	} {
		if s.v > MaxSize {
			return nil, fmt.Errorf("ruu: %s %d exceeds the maximum %d", s.name, s.v, MaxSize)
		}
	}
	switch cfg.Engine {
	case EngineSimple:
		return simple.New(), nil
	case EngineTomasulo:
		return tagunit.New(tagunit.Config{Stations: tagunit.PerUnit(cfg.Entries)}), nil
	case EngineTagUnit:
		return tagunit.New(tagunit.Config{
			Stations:    tagunit.PerUnit(cfg.Entries),
			TagUnitSize: defaultInt(cfg.TagUnitSize, 20),
		}), nil
	case EngineRSPool:
		return tagunit.New(tagunit.Config{
			Stations:    tagunit.Pool(cfg.Entries),
			TagUnitSize: defaultInt(cfg.TagUnitSize, 20),
		}), nil
	case EngineRSTU:
		return tagunit.New(tagunit.Config{Stations: tagunit.Pool(cfg.Entries), Paths: cfg.Paths}), nil
	case EngineReorder:
		return reorder.New(reorder.ModePlain, cfg.Entries), nil
	case EngineReorderBypass:
		return reorder.New(reorder.ModeBypass, cfg.Entries), nil
	case EngineReorderFuture:
		return reorder.New(reorder.ModeFuture, cfg.Entries), nil
	case EngineRUU, "":
		return tagunit.New(tagunit.Config{
			Stations:    tagunit.Queue(cfg.Entries),
			Bypass:      bypassOf(cfg.Bypass),
			CounterBits: cfg.CounterBits,
			CommitWidth: cfg.CommitWidth,
		}), nil
	default:
		return nil, fmt.Errorf("ruu: unknown engine kind %q", cfg.Engine)
	}
}

func bypassOf(b BypassKind) tagunit.Bypass {
	switch b {
	case BypassNone:
		return tagunit.BypassNone
	case BypassLimited:
		return tagunit.BypassLimited
	default:
		return tagunit.BypassFull
	}
}

func defaultInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

// NewMachine builds a machine around the configured engine.
func NewMachine(cfg Config) (*Machine, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return machine.New(eng, cfg.Machine), nil
}

// Assemble assembles model-architecture assembly source.
func Assemble(src string) (*Unit, error) { return asm.Assemble(src) }

// AssembleFile reads and assembles an assembly source file; diagnostics
// carry the file name ("asm: path:line: msg").
func AssembleFile(path string) (*Unit, error) { return asm.AssembleFile(path) }

// NewState returns a fresh architectural state over the unit's data
// image.
func NewState(u *Unit) *State { return exec.NewState(u.NewMemory()) }

// Run assembles src, builds a machine per cfg, runs to completion, and
// returns the result together with the final state.
func Run(cfg Config, src string) (Result, error) {
	u, err := Assemble(src)
	if err != nil {
		return Result{}, err
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(u.Prog, NewState(u))
}

// Reference runs the program on the functional executor (the golden
// reference) and returns the final state and dynamic statistics. The
// state is fresh and the caller's to change; Unit.Reference is the
// shared, read-only form a verify step compares against.
func Reference(u *Unit) (*State, exec.RunResult, error) {
	st := NewState(u)
	res, err := st.Run(u.Prog, 0, nil)
	return st, res, err
}

// FloatBits converts a float64 to its S-register/memory representation.
func FloatBits(f float64) int64 { return exec.Bits(f) }

// Float interprets an S-register/memory word as a float64.
func Float(bits int64) float64 { return exec.F64(bits) }
