// Package dfa is the static ISA-level dataflow analysis over assembled
// isa.Programs: the program-level counterpart of the source-level
// ruulint suite (internal/analysis). Where ruulint checks the Go that
// implements the simulator, dfa checks the programs the simulator runs —
// and, crucially, gives every timing engine an independent,
// machine-checked plausibility bound.
//
// The paper's whole argument is about dependencies: the RUU exists to
// resolve RAW hazards out of order while making WAR/WAW hazards and
// imprecise state a non-issue (PAPER.md §3-§5). This package makes those
// quantities inspectable without running a timing simulation:
//
//   - Analyze builds a per-instruction control-flow graph from
//     branch/halt structure, computes per-register (A/S/B/T) reaching
//     definitions, and derives def-use chains and natural loops.
//   - Lint (lint.go) turns the chains into program diagnostics:
//     uninitialized register reads, dead stores, unreachable
//     instructions, and loop-dead writes.
//   - Census (census.go) counts dynamic RAW/WAR/WAW register-hazard
//     pairs over the same dynamic instruction stream the machine
//     executes — the quantities the RUU vs. simple-issue comparison
//     hinges on.
//   - Bound (bound.go) is the dataflow-limit oracle: the longest path
//     through the dynamic trace's register-dependence DAG weighted by
//     the functional-unit latencies. Every engine's simulated cycle
//     count must be at least this bound; the oracle tests in the root
//     package assert exactly that for all kernels and engines.
//   - Replay (replay.go) computes the census and both bounds (with and
//     without the memory-dependence tightening) from one functional
//     replay; ComputeCensus and ComputeBound are views of the same loop.
//
// See docs/DFA.md for the design and the bound's assumptions.
package dfa

import (
	"ruu/internal/isa"
)

// Analysis is the static dataflow analysis of one program: CFG,
// reachability, natural loops, reaching definitions, and def-use
// chains. Build it with Analyze; the program must be validated.
type Analysis struct {
	// Prog is the analyzed program.
	Prog *isa.Program
	// Succs and Preds are the per-instruction CFG edges.
	Succs, Preds [][]int
	// Reachable marks instructions reachable from the entry (index 0).
	Reachable []bool
	// Loops are the program's natural loops (backward branches).
	Loops []Loop
	// UsesOf maps a definition site (instruction index) to the
	// instruction indices whose reads it reaches — the def-use chain.
	// Only instructions that define a register have an entry.
	UsesOf map[int][]int
	// uninitReads records, per instruction, the source registers whose
	// entry (uninitialized) definition reaches the read.
	uninitReads map[int][]isa.Reg

	in      []bitset           // reaching definitions at each instruction
	exitOut bitset             // definitions reaching any program exit
	regSlot [isa.NumRegs]int16 // per flat register: its defMask index, -1 if the program never names it
	defMask []bitset           // per named register: all of its definition IDs
	defReg  []int              // per instruction: flat dst register, or -1
}

// Loop is a natural loop formed by a backward branch: the body spans
// the instruction range [Head, Back] (the assembler and the program
// synthesizer only emit reducible loops of this shape).
type Loop struct {
	// Head is the loop header (the backward branch's target).
	Head int
	// Back is the backward branch instruction.
	Back int
}

// Contains reports whether instruction i lies inside the loop body.
func (l Loop) Contains(i int) bool { return l.Head <= i && i <= l.Back }

// Analyze runs the static analysis over a validated program.
func Analyze(p *isa.Program) *Analysis {
	a := &Analysis{
		Prog:        p,
		uninitReads: map[int][]isa.Reg{},
	}
	a.buildCFG()
	a.findLoops()
	a.reachingDefs()
	a.buildChains()
	return a
}

// InLoop reports whether instruction i lies inside any natural loop.
func (a *Analysis) InLoop(i int) bool {
	for _, l := range a.Loops {
		if l.Contains(i) {
			return true
		}
	}
	return false
}

// DefUseEdges returns the number of static def-use (RAW) edges.
func (a *Analysis) DefUseEdges() int {
	n := 0
	for _, uses := range a.UsesOf {
		n += len(uses)
	}
	return n
}
