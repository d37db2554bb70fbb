// Package reorder implements the precise-interrupt schemes of Smith &
// Pleszkun ("Implementation of Precise Interrupts in Pipelined
// Processors", ISCA 1985) that the paper's §4 builds on: strictly
// in-order issue — no dependency resolution at all — with a reorder
// buffer that retires results to the architectural state in program
// order. Three organisations:
//
//   - ModePlain: a simple reorder buffer. A source register can be read
//     only from the register file, which is updated at commit, so the
//     buffer "aggravates data dependencies" (§4) — a consumer waits for
//     its producer's commit even when the value has long been computed.
//   - ModeBypass: the reorder buffer gains bypass paths; a consumer can
//     read a completed-but-uncommitted value out of the buffer.
//   - ModeFuture: a future file holds the most recent completed value of
//     every register; the architectural file still updates in order.
//     Performance equals ModeBypass at the cost of duplicating the
//     register file instead of adding search paths.
//
// Together with internal/issue/simple (in-order, imprecise), the RSTU
// (out-of-order, imprecise) and the RUU (out-of-order, precise), this
// completes the 2x2 design space the paper argues about: the RUU is the
// claim that one structure can sit in the best quadrant.
package reorder

import (
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/obs"
)

// Mode selects the Smith & Pleszkun organisation.
type Mode uint8

const (
	// ModePlain is the simple reorder buffer (no bypass).
	ModePlain Mode = iota
	// ModeBypass adds bypass paths from the buffer.
	ModeBypass
	// ModeFuture uses a future file.
	ModeFuture
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeBypass:
		return "bypass"
	case ModeFuture:
		return "future"
	default:
		return "mode?"
	}
}

type robEntry struct {
	used    bool
	id      int64 // dynamic-instruction id (observability)
	pc      int
	hasDest bool
	dest    isa.Reg
	done    bool
	value   int64

	isStore bool
	addr    int64
	data    int64

	fault *exec.Trap
}

// Engine is the in-order-issue, reorder-buffer-commit engine.
type Engine struct {
	mode Mode
	size int

	ctx *issue.Context

	// writers counts uncommitted producers per register; lastWriter is
	// the ROB position of the newest one.
	writers    [isa.NumRegs]int
	lastWriter [isa.NumRegs]int

	rob   []robEntry
	head  int
	tail  int
	count int

	// Future file (ModeFuture): value and validity of the most recent
	// *completed* instance.
	ff      [isa.NumRegs]int64
	ffFresh [isa.NumRegs]bool // ff holds the newest writer's value

	pending []completion

	retired int64
	trap    *exec.Trap
}

type completion struct {
	cycle int64
	pos   int
}

// New returns a reorder-buffer engine with n entries (default 12).
func New(mode Mode, n int) *Engine {
	if n <= 0 {
		n = 12
	}
	return &Engine{mode: mode, size: n}
}

// Name implements issue.Engine.
func (e *Engine) Name() string { return "reorder-" + e.mode.String() }

// Reset implements issue.Engine.
func (e *Engine) Reset(ctx *issue.Context) {
	e.ctx = ctx
	e.rob = make([]robEntry, e.size)
	e.head, e.tail, e.count = 0, 0, 0
	e.writers = [isa.NumRegs]int{}
	e.ff = [isa.NumRegs]int64{}
	e.ffFresh = [isa.NumRegs]bool{}
	e.pending = e.pending[:0]
	e.retired = 0
	e.trap = nil
	ctx.Bus.Reset()
	ctx.LoadRegs.Reset()
}

// BeginCycle implements issue.Engine: completions land in the reorder
// buffer (and the future file), then the head commits in order.
func (e *Engine) BeginCycle(c int64) {
	out := e.pending[:0]
	for _, p := range e.pending {
		if p.cycle != c {
			out = append(out, p)
			continue
		}
		ent := &e.rob[p.pos]
		ent.done = true
		e.ctx.Observe(obs.KindWriteback, c, ent.id, ent.pc)
		if ent.hasDest {
			f := ent.dest.Flat()
			if e.lastWriter[f] == p.pos {
				e.ff[f] = ent.value
				e.ffFresh[f] = true
			}
		}
	}
	e.pending = out
	e.commit(c)
}

func (e *Engine) commit(c int64) {
	for e.count > 0 {
		ent := &e.rob[e.head]
		if ent.fault != nil {
			e.trap = ent.fault
			return
		}
		if !ent.done {
			return
		}
		if ent.isStore {
			if f := e.ctx.State.Mem.Write(ent.addr, ent.data); f != nil {
				panic("reorder: unexpected fault at store commit: " + f.Error())
			}
		}
		if ent.hasDest {
			e.ctx.State.SetReg(ent.dest, ent.value)
			e.writers[ent.dest.Flat()]--
		}
		e.ctx.Observe(obs.KindCommit, c, ent.id, ent.pc)
		*ent = robEntry{}
		e.head = (e.head + 1) % e.size
		e.count--
		e.retired++
	}
}

// Dispatch implements issue.Engine: in-order issue sends instructions
// straight to the functional units, so there is nothing to do here.
func (e *Engine) Dispatch(int64) {}

// readReg attempts to obtain a source register's value under the mode's
// rules.
func (e *Engine) readReg(r isa.Reg) (int64, bool) {
	f := r.Flat()
	if e.writers[f] == 0 {
		return e.ctx.State.Reg(r), true
	}
	switch e.mode {
	case ModeBypass:
		// Bypass path: the newest writer's entry, if completed.
		ent := &e.rob[e.lastWriter[f]]
		if ent.done {
			return ent.value, true
		}
	case ModeFuture:
		if e.ffFresh[f] {
			return e.ff[f], true
		}
	case ModePlain:
		// Plain reorder buffer: no forwarding, wait for commit.
	}
	return 0, false
}

// TryIssue implements issue.Engine.
func (e *Engine) TryIssue(c int64, pc int, ins isa.Instruction) issue.StallReason {
	if e.trap != nil {
		return issue.StallDrain
	}
	if ins.Op == isa.Nop || ins.Op == isa.Trap {
		// NOP occupies a buffer slot so that the retired count remains a
		// program-order prefix (preciseness of the count); an explicit
		// trap faults when it reaches the head.
		if e.count == e.size {
			return issue.StallEntry
		}
		_, ent := e.allocate(c, pc)
		if ins.Op == isa.Trap {
			ent.fault = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
		}
		e.doneAtIssue(c, ent)
		return issue.StallNone
	}

	u := &e.ctx.Uops[pc]
	var vals [2]int64
	for i, r := range u.Src[:u.NSrc] {
		v, ok := e.readReg(r)
		if !ok {
			return issue.StallOperand
		}
		vals[i] = v
	}

	if e.count == e.size {
		return issue.StallEntry
	}
	lat := int64(e.ctx.Lat[u.Unit])
	if u.HasDst && !e.ctx.Bus.Reserve(c+lat) {
		return issue.StallBus
	}
	pos, ent := e.allocate(c, pc)
	if !u.Load && !u.Store {
		ent.value = exec.ALU(ins, vals[0], vals[1])
		e.pending = append(e.pending, completion{c + lat, pos})
		return issue.StallNone
	}
	addr := exec.EffAddr(ins, vals[0])
	if ent.fault = issue.MemTrap(e.ctx, pc, addr); ent.fault != nil {
		e.doneAtIssue(c, ent)
		return issue.StallNone
	}
	if u.Store {
		// A store is "done" at issue; memory waits for commit.
		ent.isStore, ent.addr, ent.data = true, addr, vals[1]
		e.doneAtIssue(c, ent)
		return issue.StallNone
	}
	// In-order issue with stores buffered in the ROB: the load must see
	// the newest uncommitted store to its address.
	v, hit := e.searchStores(addr)
	if !hit {
		mv, f := e.ctx.State.Mem.Read(addr)
		if f != nil {
			panic("reorder: unexpected fault after check: " + f.Error())
		}
		v = mv
	}
	ent.value = v
	e.pending = append(e.pending, completion{c + lat, pos})
	return issue.StallNone
}

// allocate builds a ROB entry in place at the tail of a buffer that is
// not full, recording it as its destination's newest writer, and returns
// its position. In-order issue sends the instruction straight to its
// functional unit, so issue, dispatch and execute coincide.
func (e *Engine) allocate(c int64, pc int) (int, *robEntry) {
	pos := e.tail
	ent := &e.rob[pos]
	*ent = robEntry{used: true, id: e.ctx.DecodeID, pc: pc}
	if u := &e.ctx.Uops[pc]; u.HasDst {
		ent.hasDest = true
		ent.dest = u.Dst
		f := u.Dst.Flat()
		e.writers[f]++
		e.lastWriter[f] = pos
		e.ffFresh[f] = false // the newest writer has not completed yet
	}
	e.tail = (e.tail + 1) % e.size
	e.count++
	e.ctx.Observe(obs.KindIssue, c, ent.id, ent.pc)
	e.ctx.Observe(obs.KindDispatch, c, ent.id, ent.pc)
	e.ctx.Observe(obs.KindExecute, c, ent.id, ent.pc)
	return pos, ent
}

// doneAtIssue completes an entry at issue: stores, NOPs, explicit traps
// and faulting memory operations.
func (e *Engine) doneAtIssue(c int64, ent *robEntry) {
	ent.done = true
	e.ctx.Observe(obs.KindWriteback, c, ent.id, ent.pc)
}

// searchStores scans the buffer from newest to oldest for an uncommitted
// store to addr.
func (e *Engine) searchStores(addr int64) (int64, bool) {
	for i, pos := 0, (e.tail-1+e.size)%e.size; i < e.count; i, pos = i+1, (pos-1+e.size)%e.size {
		ent := &e.rob[pos]
		if ent.used && ent.isStore && ent.fault == nil && ent.addr == addr {
			return ent.data, true
		}
	}
	return 0, false
}

// TryReadCond implements issue.Engine with the mode's read rules: a
// branch in the plain organisation waits for its condition register to
// commit — the dependency aggravation §4 describes.
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	return e.readReg(r)
}

// Drained implements issue.Engine.
func (e *Engine) Drained() bool { return e.count == 0 }

// PendingTrap implements issue.Engine.
func (e *Engine) PendingTrap() *exec.Trap { return e.trap }

// Precise implements issue.Engine: commit is in program order, so yes.
func (e *Engine) Precise() bool { return true }

// Flush implements issue.Engine.
func (e *Engine) Flush() {
	e.rob = make([]robEntry, e.size)
	e.head, e.tail, e.count = 0, 0, 0
	e.writers = [isa.NumRegs]int{}
	e.ffFresh = [isa.NumRegs]bool{}
	e.pending = e.pending[:0]
	e.trap = nil
	e.ctx.Bus.Clear()
	e.ctx.LoadRegs.Reset()
}

// InFlight implements issue.Engine.
func (e *Engine) InFlight() int { return e.count }

// Retired implements issue.Engine.
func (e *Engine) Retired() int64 { return e.retired }

// HeadPC returns the oldest uncommitted instruction's program counter
// (the precise restart point for an external interrupt).
func (e *Engine) HeadPC() (int, bool) {
	if e.count == 0 {
		return 0, false
	}
	return e.rob[e.head].pc, true
}
