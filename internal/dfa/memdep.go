package dfa

import (
	"fmt"
	"math/bits"
	"sort"

	"ruu/internal/exec"
	"ruu/internal/isa"
)

// Static memory-dependence analysis on top of the abstract
// interpretation: every pair of memory instructions (with at least one
// store) is classified must-alias / may-alias / no-alias from the
// abstract effective addresses — interval overlap, stride congruence,
// and symbolic base equality — and the classification is lifted to
// loop-carried dependences for pairs inside the same natural loop.
//
// The classification is validated two ways: the absint soundness
// property test guarantees every concrete address lies in its abstract
// address, and CrossCheckMemDeps replays a concrete execution and
// reports a must-alias-violation finding whenever the executor observes
// a memory dependence the static analysis proved absent.

// AliasKind classifies the address relationship of two memory accesses.
type AliasKind uint8

const (
	// NoAlias means the two accesses can never touch the same word.
	NoAlias AliasKind = iota
	// MayAlias means the address sets overlap but are not proven equal.
	MayAlias
	// MustAlias means both accesses always touch the same word.
	MustAlias
)

func (k AliasKind) String() string {
	switch k {
	case NoAlias:
		return "no-alias"
	case MayAlias:
		return "may-alias"
	case MustAlias:
		return "must-alias"
	default:
		return "alias?"
	}
}

// MemDep is one static memory-dependence edge between two memory
// instructions, at least one of which is a store.
type MemDep struct {
	// From and To are instruction indices; From executes before To. For
	// a loop-carried edge From executes in an earlier iteration, so From
	// >= To in program order is possible (including From == To: a store
	// depending on itself across iterations).
	From, To int
	// Kind is the alias classification (never NoAlias: non-edges are
	// simply absent).
	Kind AliasKind
	// Carried marks a loop-carried dependence across a back edge.
	Carried bool
}

// MemDeps is the program's static memory-dependence summary.
type MemDeps struct {
	// Edges lists every dependence, intra-iteration edges first in
	// (From, To) order, then loop-carried edges.
	Edges []MemDep
	// Must, May, and Carried are summary counts over Edges.
	Must, May, Carried int
}

// uniqueReachingDef returns the single definition ID (real instruction
// index, or a synthetic entry def >= len(prog)) of flat register r
// reaching instruction i, and ok=false when several definitions reach.
func (a *Analysis) uniqueReachingDef(i, r int) (int, bool) {
	mask := a.mask(r)
	found := -1
	for w := range mask {
		word := a.in[i][w] & mask[w]
		for word != 0 {
			d := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if found >= 0 {
				return -1, false
			}
			found = d
		}
	}
	if found < 0 {
		return -1, false
	}
	return found, true
}

// aliasRanges is the range half of the classification: NoAlias when the
// abstract address sets of i and j are provably disjoint (disjoint
// intervals, or incompatible stride congruence classes), MayAlias
// otherwise.
func (ai *AbsInt) aliasRanges(i, j int) AliasKind {
	va, vb := ai.Addr[i], ai.Addr[j]
	if va.Hi < vb.Lo || vb.Hi < va.Lo {
		return NoAlias
	}
	if va.Lo != NegInf && vb.Lo != NegInf {
		d := absDiff(va.Lo, vb.Lo)
		g := gcd64(va.Stride, vb.Stride)
		if g == 0 {
			// Both singletons: overlap already implies equality, but be
			// explicit for clarity.
			if d != 0 {
				return NoAlias
			}
		} else if d%uint64(g) != 0 {
			// The congruence classes mod gcd never intersect.
			return NoAlias
		}
	}
	return MayAlias
}

// Alias classifies the address pair of memory instructions i and j:
// MustAlias when the addresses are provably always equal — equal
// constants, or the same base register with the same unique reaching
// definition and equal displacement — NoAlias when the address sets are
// disjoint, MayAlias otherwise.
func (ai *AbsInt) Alias(i, j int) AliasKind {
	if ca, aok := ai.Addr[i].IsConst(); aok {
		if cb, bok := ai.Addr[j].IsConst(); bok {
			if ca == cb {
				return MustAlias
			}
			return NoAlias
		}
	}
	if ai.aliasRanges(i, j) == NoAlias {
		return NoAlias
	}
	pi := ai.An.Prog.Instructions[i]
	pj := ai.An.Prog.Instructions[j]
	if pi.J == pj.J && pi.Imm == pj.Imm {
		bf := isa.A(int(pi.J)).Flat()
		di, iok := ai.An.uniqueReachingDef(i, bf)
		dj, jok := ai.An.uniqueReachingDef(j, bf)
		if iok && jok && di == dj {
			return MustAlias
		}
	}
	return MayAlias
}

// loopInvariantAddr reports whether instruction i's effective address
// is the same in every iteration of l: a constant abstract address, or
// a base register no instruction inside the loop writes.
func (ai *AbsInt) loopInvariantAddr(l Loop, i int) bool {
	if _, ok := ai.Addr[i].IsConst(); ok {
		return true
	}
	base := isa.A(int(ai.An.Prog.Instructions[i].J)).Flat()
	for k := l.Head; k <= l.Back && k < len(ai.An.defReg); k++ {
		if ai.An.defReg[k] == base {
			return false
		}
	}
	return true
}

// MemDeps derives the static memory-dependence edges.
func (ai *AbsInt) MemDeps() *MemDeps {
	a := ai.An
	var mems []int
	for i, ins := range a.Prog.Instructions {
		if ai.Reached[i] && ins.Op.IsMem() {
			mems = append(mems, i)
		}
	}
	isStore := func(i int) bool { return a.Prog.Instructions[i].Op.Info().Store }

	d := &MemDeps{}
	add := func(e MemDep) {
		d.Edges = append(d.Edges, e)
		switch e.Kind {
		case MustAlias:
			d.Must++
		case MayAlias:
			d.May++
		case NoAlias:
			// Never added as an edge.
		}
		if e.Carried {
			d.Carried++
		}
	}

	// Intra-iteration edges in program order.
	for xi, x := range mems {
		for _, y := range mems[xi+1:] {
			if !isStore(x) && !isStore(y) {
				continue
			}
			if k := ai.Alias(x, y); k != NoAlias {
				add(MemDep{From: x, To: y, Kind: k})
			}
		}
	}

	// Loop-carried edges: from y in one iteration to x in a later one,
	// for every pair inside the same loop (x <= y, so the dependence
	// wraps the back edge; x == y is a store depending on itself).
	// MustAlias survives the lift only when both addresses are
	// loop-invariant — a stride-walking must-alias pair touches a
	// different word each iteration.
	seen := map[[2]int]bool{}
	for _, l := range a.Loops {
		for _, x := range mems {
			if !l.Contains(x) {
				continue
			}
			for _, y := range mems {
				if !l.Contains(y) || y < x {
					continue
				}
				if !isStore(x) && !isStore(y) {
					continue
				}
				key := [2]int{y, x}
				if seen[key] {
					continue
				}
				if ai.aliasRanges(x, y) == NoAlias {
					continue
				}
				k := MayAlias
				if ai.Alias(x, y) == MustAlias && ai.loopInvariantAddr(l, x) && ai.loopInvariantAddr(l, y) {
					k = MustAlias
				}
				seen[key] = true
				add(MemDep{From: y, To: x, Kind: k, Carried: true})
			}
		}
	}
	sort.SliceStable(d.Edges[len(d.Edges)-d.Carried:], func(i, j int) bool {
		ei := d.Edges[len(d.Edges)-d.Carried+i]
		ej := d.Edges[len(d.Edges)-d.Carried+j]
		if ei.From != ej.From {
			return ei.From < ej.From
		}
		return ei.To < ej.To
	})
	return d
}

// CrossCheckMemDeps validates the static alias classification against
// one concrete execution: it replays the program from st and reports a
// must-alias-violation finding whenever the executor observes a
// store→load dependence between a pair the analysis classified NoAlias,
// or an effective address outside an instruction's abstract address.
// Any finding is an internal soundness defect of the analysis, surfaced
// as a diagnostic rather than a panic so ruudfa can report it.
func (ai *AbsInt) CrossCheckMemDeps(st *exec.State, maxInstr int64) ([]Finding, error) {
	p := ai.An.Prog
	owner := make([]int32, st.Mem.Size())
	for i := range owner {
		owner[i] = -1
	}
	reported := map[[2]int]bool{}
	var out []Finding
	h := exec.Hooks{Mem: func(ev exec.MemEvent) {
		if ev.Addr < 0 || ev.Addr >= int64(len(owner)) {
			return // the executor traps on this access
		}
		if !ai.Addr[ev.PC].Contains(ev.Addr) {
			key := [2]int{-1, ev.PC}
			if !reported[key] {
				reported[key] = true
				out = append(out, Finding{
					Rule: RuleMustAliasViolation, Idx: ev.PC, Line: ev.Ins.Line,
					Msg: fmt.Sprintf("executed address %d outside the abstract address %v", ev.Addr, ai.Addr[ev.PC]),
				})
			}
		}
		if ev.Store {
			owner[ev.Addr] = int32(ev.PC)
			return
		}
		w := owner[ev.Addr]
		if w < 0 {
			return
		}
		if ai.Alias(int(w), ev.PC) == NoAlias {
			key := [2]int{int(w), ev.PC}
			if !reported[key] {
				reported[key] = true
				out = append(out, Finding{
					Rule: RuleMustAliasViolation, Idx: ev.PC, Line: ev.Ins.Line,
					Msg: fmt.Sprintf("load reads address %d written by instr %d, statically classified no-alias", ev.Addr, w),
				})
			}
		}
	}}
	if _, err := st.RunHooks(p, maxInstr, h); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Idx != out[j].Idx {
			return out[i].Idx < out[j].Idx
		}
		return out[i].Msg < out[j].Msg
	})
	return out, nil
}
