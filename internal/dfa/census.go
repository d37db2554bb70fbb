package dfa

import (
	"fmt"

	"ruu/internal/exec"
	"ruu/internal/isa"
)

// Census counts the register-hazard pairs in one dynamic execution —
// the quantities the paper's issue mechanisms exist to handle: RAW
// hazards are resolved by waiting (reservation stations, the RUU's
// ready logic); WAR and WAW hazards are what register renaming through
// tags / RUU instances makes a non-issue (§3, §5).
type Census struct {
	// DynInstrs is the number of dynamic instructions executed (HALT and
	// NOPs included, matching exec.RunResult.Executed and
	// machine.Stats.Instructions).
	DynInstrs int64
	// RAW counts dynamic source reads of a register a previous
	// instruction wrote (one per read operand, the flow dependencies an
	// issue mechanism must wait for if the value is still in flight).
	RAW int64
	// WAR counts dynamic register writes where another instruction read
	// the register since its previous write (anti dependencies).
	WAR int64
	// WAW counts dynamic register writes to a register already written
	// (output dependencies).
	WAW int64
	// Branches and Taken count dynamic branches.
	Branches, Taken int64
	// Trap is non-nil if execution stopped at a trap; the census then
	// covers the executed prefix.
	Trap *exec.Trap
}

// ComputeCensus replays the program on the functional executor, starting
// from st (which it mutates), and tallies the dynamic hazard census.
// maxInstr bounds the replay (exec.DefaultMaxInstructions if <= 0).
func ComputeCensus(p *isa.Program, st *exec.State, maxInstr int64) (Census, error) {
	r := newReplay(p, st, BoundConfig{MaxInstr: maxInstr}, false, false)
	for r.step() {
	}
	if r.exhausted {
		return r.censusResult(), fmt.Errorf("dfa: census instruction budget %d exhausted at pc=%d", r.maxInstr, st.PC)
	}
	return r.censusResult(), nil
}
