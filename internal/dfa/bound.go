package dfa

import (
	"fmt"

	"ruu/internal/exec"
	"ruu/internal/fu"
	"ruu/internal/isa"
)

// BoundConfig parameterises the dataflow-limit oracle.
type BoundConfig struct {
	// Lat are the functional-unit latencies weighting the dependence
	// edges (fu.DefaultLatencies when zero).
	Lat fu.Latencies
	// FwdLatency, when positive, caps the effective load latency at
	// min(Lat[UnitMem], FwdLatency): the machine's load registers can
	// satisfy a load by forwarding in FwdLatency cycles, so a bound
	// weighting every load at the full memory latency would not be a
	// lower bound. Zero disables the cap (no forwarding model).
	FwdLatency int
	// MaxInstr bounds the replay (exec.DefaultMaxInstructions if <= 0).
	MaxInstr int64
	// NoMemDep disables the memory-dependence tightening (store→load
	// edges through the same address, and the full memory latency on
	// first-touch loads), reproducing the looser register-only bound.
	// The zero value keeps the tightening on: the bound is still a true
	// lower bound (see below) and strictly tighter wherever loads
	// stream fresh addresses or read stored recurrences.
	NoMemDep bool
}

// Bound is the dataflow limit of one dynamic execution: the longest
// path through the dynamic register-dependence DAG, weighted by
// functional-unit latencies. No engine of the model architecture can
// finish the program in fewer cycles:
//
//   - every register RAW chain needs at least the sum of the producers'
//     latencies (the engine timing contract: a consumer completes no
//     earlier than its producer's completion plus its own latency),
//   - the single decode stage handles at most one instruction per cycle
//     in program order, so the k-th dynamic instruction starts no
//     earlier than cycle k and the run needs at least DynInstrs cycles,
//   - every taken branch redirects fetch, which costs at least one dead
//     fetch cycle under any configuration (machine.Config clamps
//     TakenPenalty and PredictedTakenBubble to >= 1), pushing every
//     later instruction's earliest start one cycle further out.
//
// Memory dependencies are included two ways, both through the
// dynamically exact addresses of the replay:
//
//   - store→load edges: a load returning a value some store wrote
//     cannot start before the store knew both its data and its address,
//     so the load's start is constrained to that ready time (its
//     latency stays capped at min(Lat[UnitMem], FwdLatency), the
//     cheaper of the memory and forwarding paths).
//   - first-touch loads pay the full memory latency: load-register
//     forwarding (memsys.LoadRegs) can only chain onto an earlier
//     operation on the same address, so the first access to an address
//     necessarily returns the value from memory in Lat[UnitMem] cycles
//     — the FwdLatency cap cannot apply to it on any engine. (Squashed
//     wrong-path operations never forward, so speculation cannot beat
//     this either.)
//
// BoundConfig.NoMemDep recovers the old register-only bound.
//
// The bound still deliberately ignores the single result bus, branch
// penalties, and structural stalls — these only slow a real engine
// down, so omitting them keeps the bound sound (a true lower bound) at
// the price of looseness. See docs/DFA.md.
type Bound struct {
	// CritPath is the latency-weighted longest path (cycles).
	CritPath int64
	// DynInstrs is the number of dynamic instructions executed.
	DynInstrs int64
	// Cycles is the dataflow limit: max(CritPath, DynInstrs).
	Cycles int64
	// MemDepEdges counts the store→load dependence edges the replay
	// found (loads whose address a prior store wrote). Zero when
	// BoundConfig.NoMemDep is set.
	MemDepEdges int64
	// Trap is non-nil if execution stopped at a trap; the bound then
	// covers the executed prefix.
	Trap *exec.Trap
}

// Speedup returns the largest speedup over baseCycles any engine could
// reach on this program: baseCycles / Cycles.
func (b Bound) Speedup(baseCycles int64) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(b.Cycles)
}

// ComputeBound replays the program on the functional executor, starting
// from st (which it mutates), and computes the dataflow limit over the
// same dynamic instruction stream every engine executes: each register
// is ready when its latest writer completes, each instruction completes
// at max(its decode slot, the ready times of its sources) plus its unit
// latency, and the critical path is the maximum completion over the
// whole trace. The replay loop is shared with ComputeCensus and Replay
// (replay.go).
func ComputeBound(p *isa.Program, st *exec.State, cfg BoundConfig) (Bound, error) {
	r := newReplay(p, st, cfg, !cfg.NoMemDep, cfg.NoMemDep)
	for r.step() {
	}
	b := &r.tight
	if cfg.NoMemDep {
		b = &r.regOnly
	}
	if r.exhausted {
		return r.boundResult(b), fmt.Errorf("dfa: bound instruction budget %d exhausted at pc=%d", r.maxInstr, st.PC)
	}
	return r.boundResult(b), nil
}
