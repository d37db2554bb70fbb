// Package simple implements the baseline instruction-issue mechanism of
// the paper's Table 1: strictly in-order issue with per-register busy
// bits. An instruction waits in the decode-and-issue stage until all of
// its source registers are available and its destination register is not
// busy; because the single decode stage is occupied while it waits,
// nothing behind it can proceed. Completion is still out of order (the
// functional units have different latencies), so interrupts are
// imprecise — exactly the combination the paper sets out to fix.
package simple

import (
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/obs"
)

type writeback struct {
	cycle int64
	dst   isa.Reg
	value int64
	id    int64 // dynamic-instruction id (observability)
	pc    int
}

// Engine is the simple in-order issue engine.
type Engine struct {
	ctx      *issue.Context
	busy     [isa.NumRegs]bool
	inflight []writeback
	retired  int64
	trap     *exec.Trap
}

// New returns a simple-issue engine.
func New() *Engine { return &Engine{} }

// Name implements issue.Engine.
func (e *Engine) Name() string { return "simple" }

// Reset implements issue.Engine.
func (e *Engine) Reset(ctx *issue.Context) {
	e.ctx = ctx
	e.busy = [isa.NumRegs]bool{}
	e.inflight = e.inflight[:0]
	e.retired = 0
	e.trap = nil
	ctx.Bus.Reset()
	ctx.LoadRegs.Reset()
}

// BeginCycle broadcasts results completing this cycle into the register
// file and clears the producers' busy bits.
func (e *Engine) BeginCycle(c int64) {
	out := e.inflight[:0]
	for _, wb := range e.inflight {
		if wb.cycle == c {
			e.ctx.State.SetReg(wb.dst, wb.value)
			e.busy[wb.dst.Flat()] = false
			e.ctx.Observe(obs.KindWriteback, c, wb.id, wb.pc)
			e.ctx.Observe(obs.KindCommit, c, wb.id, wb.pc)
		} else {
			out = append(out, wb)
		}
	}
	e.inflight = out
}

// Dispatch implements issue.Engine; the simple engine has no reservation
// stations, so instructions go straight from issue to the functional
// units and there is nothing to do here.
func (e *Engine) Dispatch(int64) {}

// TryIssue implements issue.Engine.
func (e *Engine) TryIssue(c int64, pc int, ins isa.Instruction) issue.StallReason {
	if e.trap != nil {
		return issue.StallDrain
	}
	if ins.Op == isa.Nop {
		e.retired++
		e.observeDone(c, pc)
		return issue.StallNone
	}

	u := &e.ctx.Uops[pc]
	srcs := u.Src[:u.NSrc]
	for _, r := range srcs {
		if e.busy[r.Flat()] {
			return issue.StallOperand
		}
	}
	dst, hasDst := u.Dst, u.HasDst
	if hasDst && e.busy[dst.Flat()] {
		return issue.StallDest
	}

	st := e.ctx.State
	switch {
	case ins.Op == isa.Trap:
		e.trap = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
		return issue.StallNone
	case u.Load:
		addr := exec.EffAddr(ins, st.Reg(u.Src[0]))
		lat := int64(e.ctx.Lat[isa.UnitMem])
		// Reserve the bus before the trap check so the injector is
		// consulted exactly once per dynamic memory operation (a bus
		// stall retries issue next cycle).
		if !e.ctx.Bus.Reserve(c + lat) {
			return issue.StallBus
		}
		if t := e.memTrap(pc, addr); t != nil {
			e.trap = t
			return issue.StallNone
		}
		v, f := st.Mem.Read(addr)
		if f != nil {
			panic("simple: unexpected fault after check: " + f.Error())
		}
		e.busy[dst.Flat()] = true
		e.inflight = append(e.inflight, writeback{c + lat, dst, v, e.ctx.DecodeID, pc})
		e.observeStart(c, pc)
	case u.Store:
		addr := exec.EffAddr(ins, st.Reg(u.Src[0]))
		if t := e.memTrap(pc, addr); t != nil {
			e.trap = t
			return issue.StallNone
		}
		// In-order issue guarantees memory ordering; the store's value is
		// architecturally visible at issue (timing-wise the memory unit
		// is pipelined and stores produce no register result).
		data := st.Reg(u.Src[1])
		if f := st.Mem.Write(addr, data); f != nil {
			panic("simple: unexpected fault after check: " + f.Error())
		}
		e.observeDone(c, pc)
	default:
		// Computational instruction: all operands are ready now.
		var v1, v2 int64
		if len(srcs) > 0 {
			v1 = st.Reg(srcs[0])
		}
		if len(srcs) > 1 {
			v2 = st.Reg(srcs[1])
		}
		lat := int64(e.ctx.Lat[u.Unit])
		if !e.ctx.Bus.Reserve(c + lat) {
			return issue.StallBus
		}
		res := exec.ALU(ins, v1, v2)
		if hasDst {
			e.busy[dst.Flat()] = true
			e.inflight = append(e.inflight, writeback{c + lat, dst, res, e.ctx.DecodeID, pc})
			e.observeStart(c, pc)
		} else {
			e.observeDone(c, pc)
		}
	}
	e.retired++
	return issue.StallNone
}

func (e *Engine) memTrap(pc int, addr int64) *exec.Trap {
	return issue.MemTrap(e.ctx, pc, addr)
}

// observeStart emits the issue-time stages for an instruction whose
// result is still in flight: with no reservation stations, issue,
// dispatch and execute coincide.
func (e *Engine) observeStart(c int64, pc int) {
	id := e.ctx.DecodeID
	e.ctx.Observe(obs.KindIssue, c, id, pc)
	e.ctx.Observe(obs.KindDispatch, c, id, pc)
	e.ctx.Observe(obs.KindExecute, c, id, pc)
}

// observeDone emits the full stage chain for an instruction that is
// architecturally complete at issue (NOP, store, result-less ALU op).
func (e *Engine) observeDone(c int64, pc int) {
	id := e.ctx.DecodeID
	e.observeStart(c, pc)
	e.ctx.Observe(obs.KindWriteback, c, id, pc)
	e.ctx.Observe(obs.KindCommit, c, id, pc)
}

// TryReadCond implements issue.Engine: the condition register is readable
// once it is not busy.
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	if e.busy[r.Flat()] {
		return 0, false
	}
	return e.ctx.State.Reg(r), true
}

// Drained implements issue.Engine.
func (e *Engine) Drained() bool { return len(e.inflight) == 0 }

// PendingTrap implements issue.Engine. The simple engine reports traps as
// soon as they are detected; older instructions may still be in flight,
// so the state is imprecise.
func (e *Engine) PendingTrap() *exec.Trap { return e.trap }

// Precise implements issue.Engine.
func (e *Engine) Precise() bool { return false }

// Flush implements issue.Engine.
func (e *Engine) Flush() {
	e.inflight = e.inflight[:0]
	e.busy = [isa.NumRegs]bool{}
	e.trap = nil
	e.ctx.Bus.Clear()
	e.ctx.LoadRegs.Reset()
}

// InFlight implements issue.Engine.
func (e *Engine) InFlight() int { return len(e.inflight) }

// Retired implements issue.Engine.
func (e *Engine) Retired() int64 { return e.retired }
