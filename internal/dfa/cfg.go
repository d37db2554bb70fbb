package dfa

import "ruu/internal/isa"

// buildCFG derives the instruction-level control-flow graph. Successors
// follow the architectural semantics in internal/exec: HALT has none,
// JMP goes only to its target, a conditional branch goes to its target
// and the fall-through, TRAP falls through (a handler may repair the
// cause and resume past it), and everything else falls through. The
// program must already be validated, so branch targets are in range.
func (a *Analysis) buildCFG() {
	n := len(a.Prog.Instructions)
	a.Succs = make([][]int, n)
	a.Preds = make([][]int, n)
	// Every instruction has at most two successors; all edges share one
	// block in each direction.
	succs := make([]int, 0, 2*n)
	nPreds := make([]int, n)
	for i, ins := range a.Prog.Instructions {
		first := len(succs)
		switch {
		case ins.Op == isa.Halt:
			// No successors: execution stops.
		case ins.Op == isa.Jmp:
			succs = append(succs, int(ins.Imm))
		case ins.Op.IsBranch():
			t := int(ins.Imm)
			succs = append(succs, t)
			if i+1 < n && t != i+1 {
				succs = append(succs, i+1)
			}
		default:
			if i+1 < n {
				succs = append(succs, i+1)
			}
		}
		if len(succs) > first {
			a.Succs[i] = succs[first:len(succs):len(succs)]
		}
		for _, s := range succs[first:] {
			nPreds[s]++
		}
	}
	preds := make([]int, len(succs))
	for s, k := range nPreds {
		if k > 0 {
			a.Preds[s], preds = preds[:0:k], preds[k:]
		}
	}
	for i, ss := range a.Succs {
		for _, s := range ss {
			a.Preds[s] = append(a.Preds[s], i)
		}
	}

	// Reachability from the entry instruction, by depth-first search.
	a.Reachable = make([]bool, n)
	if n == 0 {
		return
	}
	stack := []int{0}
	a.Reachable[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range a.Succs[i] {
			if !a.Reachable[s] {
				a.Reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
}

// findLoops records the natural loops. Every loop in assembled or
// synthesized programs is a backward branch to its header, so the body
// is exactly the index range [target, branch].
func (a *Analysis) findLoops() {
	for i, ins := range a.Prog.Instructions {
		if !ins.Op.IsBranch() || !a.Reachable[i] {
			continue
		}
		if t := int(ins.Imm); t <= i {
			a.Loops = append(a.Loops, Loop{Head: t, Back: i})
		}
	}
}
