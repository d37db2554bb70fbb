package tagunit

import (
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/obs"
)

// This file implements the paper's §7 extension for the queue:
// conditional execution of instructions from a predicted branch path. A
// predicted branch enters the queue as an ordinary entry whose single
// source operand is its condition register; everything issued after it
// is conditional simply by being younger in the queue. Because the queue
// commits in order, a conditional instruction can never update the
// architectural state before the branch it depends on has resolved and
// committed — the RUU's nullification mechanism ("there is no hard limit
// to the number of branches that can be predicted") is just a truncation
// of the queue behind the mispredicted branch, with the NI/LI counters
// unwound and speculatively bound load registers squashed. The machine
// speculates only on a precise engine, i.e. a Queue.

// IssueBranch implements issue.Speculator.
func (e *Engine) IssueBranch(c int64, pc int, ins isa.Instruction, predictTaken bool) (int, issue.StallReason) {
	if e.trap != nil {
		return 0, issue.StallDrain
	}
	idx, r := e.enter(c, pc, ins)
	if r != issue.StallNone {
		return 0, r
	}
	s := &e.stations[idx]
	s.predTaken = predictTaken
	if s.op1.ready {
		// The condition was readable at issue.
		e.resolveBranch(c, idx)
	}
	return int(s.seq), issue.StallNone
}

// resolveBranch computes the branch's architectural direction, records
// the outcome, and — on a misprediction — squashes every younger entry.
func (e *Engine) resolveBranch(c int64, idx int) {
	s := &e.stations[idx]
	ins := &e.prog[s.pc]
	taken := exec.BranchTaken(ins.Op, s.op1.value)
	s.resolved, s.executed, s.taken = true, true, taken
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
	target := int(ins.Imm)
	if !taken {
		target = s.pc + 1
	}
	s.mispredicted = taken != s.predTaken
	e.outcomes = append(e.outcomes, issue.BranchOutcome{
		ID:           int(s.seq),
		PC:           s.pc,
		Taken:        taken,
		Target:       target,
		Mispredicted: s.mispredicted,
	})
	if s.mispredicted {
		e.squashAfter(c, idx, s.seq)
	}
}

// squashAfter nullifies every entry younger than the one at pos, walking
// from the tail back so the LI counters unwind in reverse issue order:
// each entry leaves its waiter and ready lists, speculatively bound load
// registers are squashed, stale future-file entries are dropped, and
// pending outcomes of squashed branches are discarded. Functional-unit
// results of squashed entries are discarded when they arrive (their
// result-bus reservations stand — the bus cycle is genuinely consumed).
func (e *Engine) squashAfter(c int64, pos int, seq int64) {
	for e.tail != e.next(pos) {
		if e.tail--; e.tail < 0 {
			e.tail = len(e.stations) - 1
		}
		s := &e.stations[e.tail]
		e.unwait(e.tail)
		e.unready(e.tail)
		if s.hasDest {
			f := s.dest.Flat()
			e.ni[f]--
			e.regTag[f] = int32(f)<<e.liBits | (e.regTag[f]-1)&int32(e.instMask)
			if s.dest.File == isa.FileA && e.ffValid[s.dest.Idx] && e.ffTag[s.dest.Idx] == s.tag {
				e.ffValid[s.dest.Idx] = false
			}
		}
		if s.binding.Valid() {
			e.ctx.LoadRegs.Squash(s.binding)
		}
		e.ctx.Observe(obs.KindSquash, c, s.id, s.pc)
		*s = station{}
		e.inFlight--
	}

	// The squashed memory operations still unbound are the youngest of
	// the address frontier: drop them from its end.
	for e.memLen > 0 && !e.stations[*e.memAt(e.memLen - 1)].used {
		e.memLen--
	}

	keepOut := e.outcomes[:0]
	for _, o := range e.outcomes {
		if int64(o.ID) <= seq {
			keepOut = append(keepOut, o)
		}
	}
	e.outcomes = keepOut
}

// TakeOutcomes implements issue.Speculator.
func (e *Engine) TakeOutcomes() []issue.BranchOutcome {
	if len(e.outcomes) == 0 {
		return nil
	}
	// Insertion sort by ID (unique): sort.Slice would box the slice into
	// an interface, and the per-cycle outcome count is tiny.
	out := e.outcomes
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// Swap buffers: the returned slice stays intact until the next call.
	e.outcomes, e.outBuf = e.outBuf[:0], out
	return out
}

// BranchStats implements issue.Speculator: architectural (committed)
// branch counts. Wrong-path branches squashed before committing are
// never counted.
func (e *Engine) BranchStats() (branches, taken, mispredicts int64) {
	return e.comBranches, e.comTaken, e.comMispredicts
}
