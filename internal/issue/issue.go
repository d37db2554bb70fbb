// Package issue defines the contract between the shared machine loop
// (internal/machine) and the instruction-issue engines: the simple
// in-order baseline, Tomasulo's algorithm, the Tag Unit variants, the
// RSTU, and the RUU. Each engine owns the architectural register file and
// updates it according to its own discipline (at completion for the
// imprecise engines, at commit for the RUU).
package issue

import (
	"ruu/internal/exec"
	"ruu/internal/fu"
	"ruu/internal/isa"
	"ruu/internal/memsys"
	"ruu/internal/obs"
)

// Context carries the substrate shared by the machine loop and the
// engine: the program and its predecoded micro-op table, the
// architectural state, the single result bus, the load registers, and
// the functional-unit latencies.
type Context struct {
	Prog *isa.Program
	// Uops is the program's predecoded table (isa.Predecode), indexed by
	// pc: the only place the machine and the engines take an
	// instruction's unit, memory and branch flags, destination and
	// sources from. Nothing on the per-cycle path calls Op.Info,
	// Instruction.Srcs or Instruction.Dst (the parcel count the
	// instruction-buffer fetch model reads is the one exception), and a
	// latency is Lat[Uops[pc].Unit].
	Uops     []isa.Uop
	State    *exec.State
	Bus      *fu.ResultBus
	LoadRegs *memsys.LoadRegs
	Lat      fu.Latencies
	// FwdLatency is the latency of a load satisfied by load-register
	// forwarding instead of a memory access.
	FwdLatency int
	// Inject, when non-nil, is consulted by engines when a memory
	// operation accesses memory and may veto the access with a synthetic
	// trap (test support for the precise-interrupt experiments).
	Inject func(pc int, addr int64) *exec.Trap
	// probe, when non-nil, receives pipeline lifecycle events from the
	// machine loop and the engine. It is unexported so that every event
	// goes through the emission helpers below: they branch on nil and
	// allocate nothing, so a run without a probe pays only a
	// predicted-not-taken branch per would-be event, and a direct
	// probe call from an engine does not compile.
	probe obs.Probe
	// DecodeID is the dynamic-instruction id of the instruction
	// currently offered to the engine. The machine assigns ids at fetch
	// and sets this before TryIssue/IssueBranch; engines record it in
	// the accepted entry so later lifecycle events identify the same
	// dynamic instruction.
	DecodeID int64
}

// SetProbe attaches the run's probe (nil for none).
func (ctx *Context) SetProbe(p obs.Probe) { ctx.probe = p }

// Probed reports whether a probe is attached, so a caller can skip
// building an event or sample nobody receives.
func (ctx *Context) Probed() bool { return ctx.probe != nil }

// Observe emits one lifecycle event for the instruction with the given
// dynamic id. It is the zero-allocation fast path: with no probe
// attached it is a single nil check.
func (ctx *Context) Observe(k obs.Kind, cycle, id int64, pc int) {
	if ctx.probe == nil {
		return
	}
	ctx.probe.Event(obs.Event{Kind: k, Cycle: cycle, ID: id, PC: pc})
}

// ObserveStall emits a decode-stage stall event with the given reason.
func (ctx *Context) ObserveStall(cycle int64, r StallReason, id int64, pc int) {
	if ctx.probe == nil {
		return
	}
	ctx.probe.Event(obs.Event{Kind: obs.KindStall, Stall: uint8(r), Cycle: cycle, ID: id, PC: pc})
}

// ObserveSample emits the per-cycle occupancy snapshot.
func (ctx *Context) ObserveSample(s obs.Sample) {
	if ctx.probe == nil {
		return
	}
	ctx.probe.Sample(s)
}

// StallNames returns the stall-reason names indexed by StallReason code
// (the name table consumers like obs.NewMetrics receive).
func StallNames() []string {
	return append([]string(nil), stallNames[:]...)
}

// MemTrap checks a memory access for traps: first the injected fault (if
// an injector is installed), then the mapping of the target address. It
// returns nil when the access may proceed.
func MemTrap(ctx *Context, pc int, addr int64) *exec.Trap {
	if ctx.Inject != nil {
		if t := ctx.Inject(pc, addr); t != nil {
			return t
		}
	}
	if f := ctx.State.Mem.Check(addr); f != nil {
		k := exec.TrapBadAddress
		if f.Kind == memsys.FaultPage {
			k = exec.TrapPageFault
		}
		return &exec.Trap{Kind: k, PC: pc, Addr: addr}
	}
	return nil
}

// StallReason classifies why the decode-and-issue stage could not make
// progress in a cycle. The machine aggregates these into Stats.
type StallReason uint8

const (
	// StallNone: no stall (the instruction issued).
	StallNone StallReason = iota
	// StallOperand: a source operand was unavailable and the engine has
	// no place for the instruction to wait (simple issue only).
	StallOperand
	// StallDest: the destination register was busy (simple issue) or had
	// exhausted its instances (RUU: NI = 2^n-1).
	StallDest
	// StallEntry: no free reservation station / RSTU entry / RUU slot.
	StallEntry
	// StallBus: the result bus slot needed at completion was reserved
	// (simple issue reserves at issue time).
	StallBus
	// StallBranch: the decode stage held a branch waiting for its
	// condition register.
	StallBranch
	// StallFetch: dead cycles after a branch redirect (fetch penalty) or
	// an empty decode register.
	StallFetch
	// StallLoadReg: no free load register for a memory operation.
	StallLoadReg
	// StallDrain: waiting for in-flight instructions to drain at HALT or
	// at a serialisation point.
	StallDrain

	// NumStallReasons is the number of stall classes.
	NumStallReasons
)

var stallNames = [NumStallReasons]string{
	"none", "operand", "dest", "entry", "bus", "branch", "fetch", "loadreg", "drain",
}

func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "stall?"
}

// Engine is one instruction-issue mechanism. The machine loop invokes the
// phases in a fixed order each cycle:
//
//	BeginCycle  — results scheduled for this cycle broadcast on the
//	              result bus; the RUU additionally commits from its head.
//	Dispatch    — ready reservation-station entries dispatch to
//	              functional units (reserving result-bus slots).
//	TryIssue /  — the decode stage hands over the next instruction, or
//	TryReadCond   resolves a branch condition under the engine's rules.
//
// Values broadcast in BeginCycle of cycle c are visible to Dispatch and
// TryIssue of the same cycle; entries accepted by TryIssue in cycle c
// become dispatchable in cycle c+1 (a reservation station adds one
// pipeline stage relative to simple issue).
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Reset prepares the engine for a run over ctx. It must leave the
	// engine empty and the context's bus/load registers cleared.
	Reset(ctx *Context)
	// BeginCycle performs result broadcast (and commit, for the RUU).
	BeginCycle(c int64)
	// Dispatch moves ready entries to the functional units.
	Dispatch(c int64)
	// TryIssue offers the decoded instruction (never a branch, NOP or
	// HALT). It returns StallNone and consumes the instruction, or the
	// reason it could not.
	TryIssue(c int64, pc int, ins isa.Instruction) StallReason
	// TryReadCond attempts to obtain the current value of a branch's
	// condition register under the engine's bypass rules.
	TryReadCond(c int64, r isa.Reg) (int64, bool)
	// Drained reports whether no instructions are in flight (issued but
	// not yet architecturally complete).
	Drained() bool
	// PendingTrap returns a trap that has reached the engine's
	// architectural boundary: immediately upon detection for the
	// imprecise engines, at the RUU head for the RUU. The machine
	// decides whether the state is recoverable.
	PendingTrap() *exec.Trap
	// Precise reports whether PendingTrap leaves the architectural state
	// precise (true only for the RUU).
	Precise() bool
	// Flush discards all in-flight instructions and clears trap state.
	// For a precise engine the architectural state afterwards is exactly
	// the state at the trapping instruction's boundary.
	Flush()
	// InFlight returns the number of issued, not-yet-retired
	// instructions (used by statistics and occupancy tests).
	InFlight() int
	// Retired returns the number of instructions the engine has
	// architecturally completed. Squashed (nullified) instructions are
	// never counted. The machine adds the instructions it retires itself
	// (branches resolved in decode, NOP/HALT) to obtain the program's
	// dynamic instruction count.
	Retired() int64
}

// BranchOutcome describes a resolved speculative branch.
type BranchOutcome struct {
	// ID is the token returned by IssueBranch.
	ID int
	// PC is the branch's instruction index.
	PC int
	// Taken is the architecturally correct direction.
	Taken bool
	// Target is the instruction index to fetch from next.
	Target int
	// Mispredicted reports whether the predicted direction was wrong, in
	// which case the engine has already squashed the wrong-path entries.
	Mispredicted bool
}

// Speculator is implemented by engines that support the paper's §7
// extension: conditional execution of instructions from a predicted
// branch path, with RUU-based nullification on misprediction.
type Speculator interface {
	Engine
	// IssueBranch enters a conditional branch into the engine with a
	// predicted direction. Instructions issued afterwards are
	// conditional on it. It returns a token identifying the branch and
	// StallNone on success.
	IssueBranch(c int64, pc int, ins isa.Instruction, predictTaken bool) (int, StallReason)
	// TakeOutcomes returns branches resolved during this cycle, in
	// program order, and clears the internal list. Outcomes drive fetch
	// redirection and predictor training only; they may include branches
	// that are later squashed (they resolved on what turns out to be a
	// wrong path), so architectural branch statistics come from
	// BranchStats instead. The returned slice may be reused by the
	// engine; it is valid only until the next call.
	TakeOutcomes() []BranchOutcome
	// BranchStats returns committed (architectural) branch counts:
	// branches, taken branches, mispredictions.
	BranchStats() (branches, taken, mispredicts int64)
}
