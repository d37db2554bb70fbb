// Package machine implements the shared pipeline frame of the model
// architecture: instruction fetch from the (always-hitting) instruction
// buffers, the single decode-and-issue stage, branch resolution and
// redirect penalties, interrupt plumbing, and per-run statistics. The
// machine drives any issue.Engine through the fixed per-cycle phase
// order described in package issue.
package machine

import (
	"fmt"

	"ruu/internal/exec"
	"ruu/internal/fu"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/memsys"
	"ruu/internal/obs"
)

// Config parameterises the shared frame.
type Config struct {
	// Lat are the functional-unit latencies.
	Lat fu.Latencies
	// FwdLatency is the latency of a load satisfied by load-register
	// forwarding (default 2).
	FwdLatency int
	// TakenPenalty is the number of dead fetch cycles after a taken
	// branch resolves (default 6: two-parcel branch issue plus redirect
	// into the instruction buffers; calibrated against the paper's
	// tables).
	TakenPenalty int
	// UntakenPenalty is the number of dead fetch cycles after an
	// untaken branch resolves (default 2).
	UntakenPenalty int
	// LoadRegs is the number of load registers (default 6, the paper's
	// configuration).
	LoadRegs int
	// MaxCycles bounds a run (default 200M).
	MaxCycles int64
	// Speculate enables the §7 extension on precise engines that
	// implement issue.Speculator: branch prediction plus conditional
	// execution.
	Speculate bool
	// PredictedTakenBubble is the fetch bubble after a predicted-taken
	// branch in speculative mode (default 1).
	PredictedTakenBubble int
	// MispredictPenalty is the fetch penalty after a misprediction is
	// discovered (default = TakenPenalty).
	MispredictPenalty int
	// InterruptPenalty is the fetch penalty when resuming from a
	// precise interrupt (default 8).
	InterruptPenalty int
	// Probe, when non-nil, receives the structured pipeline event
	// stream: per-instruction lifecycle events (fetch, decode, issue,
	// dispatch, execute, writeback, commit, squash), decode-stall
	// events, and one occupancy sample per cycle. See internal/obs for
	// the consumers (metrics histograms, Chrome trace export, pipeline
	// viewer). A nil probe costs nothing on the hot path.
	Probe obs.Probe
	// InstructionBuffers enables the CRAY-1-style instruction-buffer
	// fetch model instead of the paper's assumption (ii)/(iii) that all
	// instruction references hit the buffers. A fetch whose parcel is in
	// no buffer stalls for IBufMissPenalty cycles while a buffer fills.
	InstructionBuffers bool
	// IBufCount is the number of instruction buffers (default 4, as on
	// the CRAY-1).
	IBufCount int
	// IBufParcels is the capacity of one buffer in 16-bit parcels
	// (default 16; the CRAY-1's four buffers held 64 parcels each — the
	// smaller default makes the capacity effects visible at kernel
	// scale).
	IBufParcels int
	// IBufMissPenalty is the fill latency on a buffer miss (default 12).
	IBufMissPenalty int
}

// DefaultConfig returns the configuration used for the paper-reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		Lat:                  fu.DefaultLatencies(),
		FwdLatency:           2,
		TakenPenalty:         6,
		UntakenPenalty:       2,
		LoadRegs:             memsys.DefaultLoadRegs,
		MaxCycles:            200_000_000,
		PredictedTakenBubble: 1,
		MispredictPenalty:    6,
		InterruptPenalty:     8,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Lat == (fu.Latencies{}) {
		c.Lat = d.Lat
	}
	if c.FwdLatency <= 0 {
		c.FwdLatency = d.FwdLatency
	}
	if c.TakenPenalty <= 0 {
		c.TakenPenalty = d.TakenPenalty
	}
	if c.UntakenPenalty < 0 {
		c.UntakenPenalty = d.UntakenPenalty
	}
	if c.LoadRegs <= 0 {
		c.LoadRegs = d.LoadRegs
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = d.MaxCycles
	}
	if c.PredictedTakenBubble <= 0 {
		c.PredictedTakenBubble = d.PredictedTakenBubble
	}
	if c.MispredictPenalty <= 0 {
		c.MispredictPenalty = c.TakenPenalty
	}
	if c.InterruptPenalty <= 0 {
		c.InterruptPenalty = d.InterruptPenalty
	}
	if c.IBufCount <= 0 {
		c.IBufCount = 4
	}
	if c.IBufParcels <= 0 {
		c.IBufParcels = 16
	}
	if c.IBufMissPenalty <= 0 {
		c.IBufMissPenalty = 12
	}
}

// Stats aggregates one run's counters.
type Stats struct {
	// Cycles is the total cycle count of the run.
	Cycles int64
	// Instructions is the number of dynamic instructions architecturally
	// executed (squashed speculative instructions excluded).
	Instructions int64
	// Branches, Taken count resolved (architectural) branches.
	Branches, Taken int64
	// Mispredicts counts mispredicted branches (speculative mode only).
	Mispredicts int64
	// Interrupts counts precise interrupts taken and resumed.
	Interrupts int64
	// Stalls counts, for each stall reason, the cycles in which the
	// decode stage failed to retire or hand over an instruction.
	Stalls [issue.NumStallReasons]int64
	// MaxInFlight is the peak engine occupancy observed. Occupancy
	// rises only when an instruction enters the engine, so it is
	// sampled there.
	MaxInFlight int
	// IBufMisses counts instruction-buffer misses (zero unless the
	// instruction-buffer fetch model is enabled).
	IBufMisses int64
}

// StallsByName returns the per-reason decode-stall cycle counts keyed by
// reason name (the JSON-friendly form of Stalls); reasons with zero
// cycles are omitted.
func (s Stats) StallsByName() map[string]int64 {
	out := make(map[string]int64)
	for r := issue.StallReason(1); r < issue.NumStallReasons; r++ {
		if n := s.Stalls[r]; n > 0 {
			out[r.String()] = n
		}
	}
	return out
}

// IssueRate returns instructions per cycle.
func (s Stats) IssueRate() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// InterruptEvent reports a trap that reached the architectural boundary.
type InterruptEvent struct {
	Trap *exec.Trap
	// Cycle is the cycle in which the trap was taken.
	Cycle int64
	// Precise reports whether the architectural state is precise (the
	// engine committed exactly the instructions preceding the trap).
	Precise bool
}

// InterruptAction tells the machine how to continue after a handled
// interrupt.
type InterruptAction struct {
	// Resume, when true, restarts fetch at ResumePC after the handler
	// has repaired the cause (e.g. mapped the faulted page). When false
	// the run stops with the trap recorded.
	Resume   bool
	ResumePC int
}

// Handler is invoked when a trap reaches the architectural boundary. The
// handler may inspect and repair the architectural state (st) before
// resuming. Handlers are only consulted for precise engines; an imprecise
// engine's trap always stops the run.
type Handler func(st *exec.State, ev InterruptEvent) InterruptAction

// Result summarises a run.
type Result struct {
	Stats Stats
	// Trap is non-nil if the run stopped at an unhandled trap.
	Trap *exec.Trap
	// Precise records whether the stop state was precise.
	Precise bool
	// Final is the architectural state at the end of the run.
	Final *exec.State
}

// Machine binds an engine to the shared frame.
type Machine struct {
	cfg     Config
	eng     issue.Engine
	handler Handler

	faultInjector FaultInjector
	externals     []int64
}

// ScheduleExternal arranges for an asynchronous (device/timer) interrupt
// to be delivered at the first commit boundary at or after the given
// cycle. On a precise engine the handler receives a TrapExternal event
// whose PC is the exact restart point (the oldest uncommitted
// instruction); on an imprecise engine the run stops — the situation
// that motivates the paper.
func (m *Machine) ScheduleExternal(cycle int64) {
	m.externals = append(m.externals, cycle)
}

// New returns a machine driving the given engine.
func New(eng issue.Engine, cfg Config) *Machine {
	cfg.fillDefaults()
	return &Machine{cfg: cfg, eng: eng}
}

// Engine returns the machine's engine.
func (m *Machine) Engine() issue.Engine { return m.eng }

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetHandler installs the interrupt handler.
func (m *Machine) SetHandler(h Handler) { m.handler = h }

// FaultInjector lets tests raise a trap at a chosen dynamic instruction:
// it is consulted when a memory operation executes and may veto the
// access with a synthetic fault. Production runs leave it nil.
type FaultInjector func(pc int, addr int64) *exec.Trap

// SetFaultInjector installs fi.
func (m *Machine) SetFaultInjector(fi FaultInjector) { m.faultInjector = fi }

type decodeReg struct {
	valid bool
	pc    int
	id    int64 // dynamic-instruction id, assigned at fetch
	seen  bool  // decode event emitted for this instruction
}

// Run executes prog to completion over the given initial architectural
// state (registers and memory; PC starts at st.PC). The state is mutated
// in place and returned in Result.Final.
func (m *Machine) Run(prog *isa.Program, st *exec.State) (Result, error) {
	if err := prog.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.cfg.Lat.Validate(); err != nil {
		return Result{}, err
	}
	uops := isa.Predecode(prog)
	ctx := &issue.Context{
		Prog:       prog,
		Uops:       uops,
		State:      st,
		Bus:        fu.NewResultBus(),
		LoadRegs:   memsys.NewLoadRegs(m.cfg.LoadRegs),
		Lat:        m.cfg.Lat,
		FwdLatency: m.cfg.FwdLatency,
		DecodeID:   obs.NoID,
	}
	ctx.SetProbe(m.cfg.Probe)
	if fi := m.faultInjector; fi != nil {
		ctx.Inject = fi
	}
	m.eng.Reset(ctx)

	// Only a precise engine can nullify a wrong path.
	spec, _ := m.eng.(issue.Speculator)
	speculating := m.cfg.Speculate && spec != nil && m.eng.Precise()
	var ib *ibufs
	if m.cfg.InstructionBuffers {
		ib = newIBufs(prog, m.cfg)
	}
	var pred *Predictor
	if speculating {
		pred = NewPredictor()
	}

	// Instructions the machine retires itself (branches resolved in
	// decode, NOP/JMP in non-speculative mode) resolve while older
	// instructions are still in flight. Their retirement is provisional
	// until the engine has committed everything issued before them: a
	// precise interrupt from an older instruction discards and re-executes
	// them, so counting them early would double-count. Each pending entry
	// records how many instructions had been handed to the engine when it
	// resolved; it matures once the engine has retired that many.
	type pendingRetire struct {
		issuedBefore int64
		id           int64
		pc           int
		branch       bool
		taken        bool
	}
	var (
		stats        Stats
		dec          decodeReg
		pc           = st.PC
		fetchDelay   = 0
		halting      = false
		nextID       = int64(0) // next dynamic-instruction id
		machineRet   = int64(0) // matured machine-retired instructions
		resolved     = int64(0) // all machine-resolved ones (progress tracking)
		pending      []pendingRetire
		pendHead     = 0
		lastProgress = int64(0)
		lastRetired  = int64(-1)
		result       Result
	)
	result.Final = st

	engineIssued := func() int64 { return m.eng.Retired() + int64(m.eng.InFlight()) }
	precise := m.eng.Precise()
	retireMachine := func(c int64, branch, taken bool) {
		resolved++
		if !precise {
			// Imprecise engines never resume after a trap, so provisional
			// retirement is unnecessary (and their Retired counters do
			// not track issue order the way maturity needs).
			machineRet++
			ctx.Observe(obs.KindCommit, c, dec.id, dec.pc)
			if branch {
				stats.Branches++
				if taken {
					stats.Taken++
				}
			}
			return
		}
		pending = append(pending, pendingRetire{engineIssued(), dec.id, dec.pc, branch, taken})
	}
	mature := func(c int64) {
		if pendHead == len(pending) {
			return
		}
		done := m.eng.Retired()
		for pendHead < len(pending) && pending[pendHead].issuedBefore <= done {
			p := pending[pendHead]
			pendHead++
			machineRet++
			ctx.Observe(obs.KindCommit, c, p.id, p.pc)
			if p.branch {
				stats.Branches++
				if p.taken {
					stats.Taken++
				}
			}
		}
		if pendHead == len(pending) {
			// Drained: reuse the backing array from the front.
			pending, pendHead = pending[:0], 0
		}
	}
	recordStall := func(c int64, r issue.StallReason) {
		stats.Stalls[r]++
		if dec.valid {
			ctx.ObserveStall(c, r, dec.id, dec.pc)
		} else {
			ctx.ObserveStall(c, r, obs.NoID, pc)
		}
	}

	total := func() int64 { return m.eng.Retired() + machineRet }
	resumeAt := func(c int64, rpc int) {
		// Provisionally resolved branches younger than the flush
		// point are discarded; the resumed execution will resolve
		// them again.
		mature(c)
		for _, p := range pending[pendHead:] {
			ctx.Observe(obs.KindSquash, c, p.id, p.pc)
		}
		resolved -= int64(len(pending) - pendHead)
		pending, pendHead = pending[:0], 0
		m.eng.Flush()
		stats.Interrupts++
		dec = decodeReg{}
		halting = false
		pc = rpc
		fetchDelay = m.cfg.InterruptPenalty
	}
	finalize := func(c int64) {
		mature(c)
		stats.Cycles = c + 1
		stats.Instructions = total()
		if ib != nil {
			stats.IBufMisses = ib.misses
		}
		if speculating {
			b, t, mp := spec.BranchStats()
			stats.Branches += b
			stats.Taken += t
			stats.Mispredicts = mp
		}
		result.Stats = stats
	}

	for c := int64(0); ; c++ {
		if c >= m.cfg.MaxCycles {
			return result, fmt.Errorf("machine: cycle budget %d exhausted (pc=%d, in-flight=%d)", m.cfg.MaxCycles, pc, m.eng.InFlight())
		}
		if t := m.eng.Retired() + resolved; t != lastRetired {
			lastRetired, lastProgress = t, c
		} else if c-lastProgress > 100_000 {
			return result, fmt.Errorf("machine: no progress for %d cycles (engine %s, pc=%d, in-flight=%d, decode=%v): likely engine deadlock",
				c-lastProgress, m.eng.Name(), pc, m.eng.InFlight(), dec.valid)
		}

		ctx.Bus.Advance(c)
		m.eng.BeginCycle(c)
		mature(c)

		// Architectural trap boundary.
		if trap := m.eng.PendingTrap(); trap != nil {
			precise := m.eng.Precise()
			ctx.Observe(obs.KindTrap, c, obs.NoID, trap.PC)
			ev := InterruptEvent{Trap: trap, Cycle: c, Precise: precise}
			if precise && m.handler != nil {
				act := m.handler(st, ev)
				if act.Resume {
					resumeAt(c, act.ResumePC)
					continue
				}
			}
			finalize(c)
			result.Trap = trap
			result.Precise = precise
			return result, nil
		}

		// External (asynchronous) interrupts: delivered at the current
		// commit boundary.
		if len(m.externals) > 0 && c >= m.externals[0] {
			m.externals = m.externals[1:]
			precise := m.eng.Precise()
			restart := pc
			if dec.valid {
				restart = dec.pc
			}
			if hp, ok := m.eng.(interface{ HeadPC() (int, bool) }); ok && precise {
				if p, live := hp.HeadPC(); live {
					restart = p
				}
			}
			trap := &exec.Trap{Kind: exec.TrapExternal, PC: restart}
			ctx.Observe(obs.KindTrap, c, obs.NoID, restart)
			ev := InterruptEvent{Trap: trap, Cycle: c, Precise: precise}
			if precise && m.handler != nil {
				act := m.handler(st, ev)
				if act.Resume {
					resumeAt(c, act.ResumePC)
					continue
				}
			}
			finalize(c)
			result.Trap = trap
			result.Precise = precise
			return result, nil
		}

		m.eng.Dispatch(c)

		// Speculative branch outcomes (resolved during broadcast or
		// dispatch above).
		if speculating {
			for _, out := range spec.TakeOutcomes() {
				pred.Update(out.PC, out.Taken)
				if out.Mispredicted {
					dec = decodeReg{}
					halting = false
					pc = out.Target
					fetchDelay = m.cfg.MispredictPenalty
				}
			}
		}

		// Decode / issue phase.
		var (
			ins *isa.Instruction // the instruction in the decode register
			u   *isa.Uop         // and its predecoded form
		)
		if dec.valid {
			ins, u = &prog.Instructions[dec.pc], &uops[dec.pc]
			ctx.DecodeID = dec.id
			if !dec.seen {
				dec.seen = true
				ctx.Observe(obs.KindDecode, c, dec.id, dec.pc)
			}
		} else {
			ctx.DecodeID = obs.NoID
		}
		switch {
		case !dec.valid:
			recordStall(c, issue.StallFetch)
		case ins.Op == isa.Halt:
			if m.eng.Drained() {
				retireMachine(c, false, false) // HALT counts as executed
				finalize(c)
				return result, nil
			}
			recordStall(c, issue.StallDrain)
		case ins.Op == isa.Jmp:
			target := int(ins.Imm)
			if speculating {
				// Enter the engine so a wrong-path jump is squashable and
				// counted only if architecturally executed.
				if _, r := spec.IssueBranch(c, dec.pc, *ins, true); r == issue.StallNone {
					stats.MaxInFlight = max(stats.MaxInFlight, m.eng.InFlight())
					dec = decodeReg{}
					pc = target
					fetchDelay = m.cfg.PredictedTakenBubble
				} else {
					recordStall(c, r)
				}
			} else {
				retireMachine(c, true, true)
				dec = decodeReg{}
				pc = target
				fetchDelay = m.cfg.TakenPenalty
			}
		case speculating && u.Cond:
			predictTaken := pred.Predict(dec.pc)
			if _, r := spec.IssueBranch(c, dec.pc, *ins, predictTaken); r == issue.StallNone {
				stats.MaxInFlight = max(stats.MaxInFlight, m.eng.InFlight())
				target := int(ins.Imm)
				dec = decodeReg{}
				if predictTaken {
					pc = target
					fetchDelay = m.cfg.PredictedTakenBubble
				}
			} else {
				recordStall(c, r)
			}
		case u.Branch:
			v, ok := m.eng.TryReadCond(c, u.CondReg)
			if !ok {
				recordStall(c, issue.StallBranch)
				break
			}
			taken := exec.BranchTaken(ins.Op, v)
			retireMachine(c, true, taken)
			target := int(ins.Imm)
			fallthroughPC := dec.pc + 1
			dec = decodeReg{}
			if taken {
				pc = target
				fetchDelay = m.cfg.TakenPenalty
			} else {
				pc = fallthroughPC
				fetchDelay = m.cfg.UntakenPenalty
			}
		default:
			if r := m.eng.TryIssue(c, dec.pc, *ins); r == issue.StallNone {
				stats.MaxInFlight = max(stats.MaxInFlight, m.eng.InFlight())
				dec = decodeReg{}
			} else {
				recordStall(c, r)
			}
		}

		// Fetch phase.
		if fetchDelay > 0 {
			fetchDelay--
		} else if !dec.valid && !halting {
			if pc < 0 || pc >= len(prog.Instructions) {
				ctx.Observe(obs.KindTrap, c, obs.NoID, pc)
				finalize(c)
				result.Trap = &exec.Trap{Kind: exec.TrapBadPC, PC: pc}
				result.Precise = m.eng.Precise()
				return result, nil
			}
			if ib != nil {
				if stall := ib.fetch(pc, prog.Instructions[pc].Op.Info().Parcels); stall > 0 {
					// The buffers fill while fetch stalls; the retry
					// after the fill hits.
					fetchDelay = stall
					continue
				}
			}
			dec = decodeReg{valid: true, pc: pc, id: nextID}
			ctx.Observe(obs.KindFetch, c, nextID, pc)
			nextID++
			if prog.Instructions[pc].Op == isa.Halt {
				halting = true
			}
			pc++
		}

		if ctx.Probed() {
			ctx.ObserveSample(obs.Sample{
				Cycle:    c,
				InFlight: m.eng.InFlight(),
				LoadRegs: ctx.LoadRegs.InUse(),
				BusBusy:  ctx.Bus.Busy(c),
			})
		}
	}
}
