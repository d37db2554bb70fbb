package dfa

import (
	"fmt"
	"math"

	"ruu/internal/exec"
	"ruu/internal/isa"
)

// This file is the abstract-interpretation layer: a value-range /
// constant-propagation fixpoint over the 144-register space in a
// combined interval + stride domain, with widening at the natural-loop
// heads cfg.go identifies. Its two consumers are the memory-dependence
// analysis (memdep.go derives static must/may-alias edges from the
// abstract effective addresses of loads and stores) and the lint rules
// that need value information (oob-access, loop-invariant-load).
//
// Soundness contract (asserted by a property test over the progsynth
// corpus and all Livermore kernels): for every instruction the concrete
// executor reaches, every architectural register's concrete value lies
// inside the abstract interval computed for that program point, and
// every memory access's concrete effective address lies inside the
// instruction's abstract address. Any operation the transfer functions
// cannot model precisely (floating-point bit patterns, wrapped integer
// overflow, loaded memory values) degrades to Top, never to a wrong
// range.

// Infinity sentinels: Lo == NegInf means "unbounded below", Hi ==
// PosInf "unbounded above". The two sentinel values themselves are
// treated as infinities, not as ordinary points — an interval that
// would need to represent math.MaxInt64 exactly becomes unbounded
// instead, which is sound (larger) and keeps bound arithmetic simple.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// AbsVal is one element of the interval+stride abstract domain: the set
// of int64 values v with Lo <= v <= Hi and, when Stride > 0 and Lo is
// finite, v ≡ Lo (mod Stride). Stride == 0 means the singleton {Lo}
// (then Hi == Lo). The zero value is the singleton {0} — the
// architectural register-file reset value, which makes the zero
// AbsRegs the zero-filled entry state for free.
type AbsVal struct {
	Lo, Hi int64
	Stride int64
}

// Top is the unconstrained abstract value (any int64).
var Top = AbsVal{Lo: NegInf, Hi: PosInf, Stride: 1}

// Const returns the singleton abstract value {v}.
func Const(v int64) AbsVal { return AbsVal{Lo: v, Hi: v}.norm() }

// Range returns the abstract value [lo, hi] with unit stride.
func Range(lo, hi int64) AbsVal { return AbsVal{Lo: lo, Hi: hi, Stride: 1}.norm() }

// IsConst reports whether the value is a singleton, returning it.
func (v AbsVal) IsConst() (int64, bool) {
	if v.Stride == 0 && v.Lo != NegInf && v.Hi != PosInf {
		return v.Lo, true
	}
	return 0, false
}

// IsTop reports whether the value is unconstrained.
func (v AbsVal) IsTop() bool { return v.Lo == NegInf && v.Hi == PosInf }

// norm canonicalises: an unbounded-below value loses its congruence
// anchor (Stride forced to 1), Hi is shrunk onto the congruence
// lattice, and a one-point interval becomes a singleton.
func (v AbsVal) norm() AbsVal {
	if v.Lo == NegInf {
		if v.Hi == NegInf {
			// Degenerate singleton {MinInt64}; Contains still admits it.
			return AbsVal{Lo: NegInf, Hi: NegInf, Stride: 0}
		}
		v.Stride = 1
		return v
	}
	if v.Hi == PosInf {
		if v.Stride < 1 {
			v.Stride = 1
		}
		return v
	}
	if v.Stride > 0 {
		d := uint64(v.Hi) - uint64(v.Lo)
		v.Hi = v.Lo + int64(d-d%uint64(v.Stride))
	}
	if v.Lo == v.Hi {
		v.Stride = 0
	} else if v.Stride == 0 {
		v.Stride = 1
	}
	return v
}

// Contains reports whether concrete value x lies in the abstract set.
func (v AbsVal) Contains(x int64) bool {
	if v.Lo != NegInf && x < v.Lo {
		return false
	}
	if v.Hi != PosInf && x > v.Hi {
		return false
	}
	if v.Stride > 1 && v.Lo != NegInf {
		d := uint64(x) - uint64(v.Lo)
		return d%uint64(v.Stride) == 0
	}
	if v.Stride == 0 {
		return x == v.Lo
	}
	return true
}

// String renders the value for diagnostics: a constant as its literal,
// otherwise "[lo,hi]" with an optional "/stride" congruence suffix.
func (v AbsVal) String() string {
	if c, ok := v.IsConst(); ok {
		return fmt.Sprintf("%d", c)
	}
	lo, hi := "-inf", "+inf"
	if v.Lo != NegInf {
		lo = fmt.Sprintf("%d", v.Lo)
	}
	if v.Hi != PosInf {
		hi = fmt.Sprintf("%d", v.Hi)
	}
	if v.Stride > 1 {
		return fmt.Sprintf("[%s,%s]/%d", lo, hi, v.Stride)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// absDiff returns |a-b| as uint64 (exact for any int64 pair).
func absDiff(a, b int64) uint64 {
	if a >= b {
		return uint64(a) - uint64(b)
	}
	return uint64(b) - uint64(a)
}

// strideJoin folds the congruence information of two values anchored at
// finite lows: the joint stride is gcd(sa, sb, |loA - loB|), capped into
// int64 range.
func strideJoin(a, b AbsVal) int64 {
	if a.Lo == NegInf || b.Lo == NegInf {
		return 1
	}
	d := absDiff(a.Lo, b.Lo)
	if d > uint64(PosInf) {
		return 1
	}
	return gcd64(gcd64(a.Stride, b.Stride), int64(d))
}

// Join returns the least upper bound of a and b.
func (v AbsVal) Join(o AbsVal) AbsVal {
	lo := v.Lo
	if o.Lo < lo {
		lo = o.Lo
	}
	hi := v.Hi
	if o.Hi > hi {
		hi = o.Hi
	}
	return AbsVal{Lo: lo, Hi: hi, Stride: strideJoin(v, o)}.norm()
}

// Widen returns a value at least as large as Join(v, o) that guarantees
// termination of ascending chains: a bound that grew jumps to its
// infinity; the stride only ever coarsens along divisor chains.
func (v AbsVal) Widen(o AbsVal) AbsVal {
	j := v.Join(o)
	if j.Lo < v.Lo {
		j.Lo = NegInf
	}
	if j.Hi > v.Hi {
		j.Hi = PosInf
	}
	return j.norm()
}

// Meet intersects v with the plain interval [lo, hi], preserving v's
// congruence by snapping the new bounds onto it. ok is false when the
// intersection is empty (the refining branch edge is infeasible).
func (v AbsVal) Meet(lo, hi int64) (AbsVal, bool) {
	nlo, nhi := v.Lo, v.Hi
	if lo > nlo {
		nlo = lo
	}
	if hi < nhi {
		nhi = hi
	}
	if nlo > nhi {
		return AbsVal{}, false
	}
	if v.Stride > 1 && v.Lo != NegInf {
		// Snap nlo up and nhi down to values ≡ v.Lo (mod Stride).
		// nlo >= v.Lo and nhi >= v.Lo here, so the uint64 differences
		// are exact.
		s := uint64(v.Stride)
		if nlo != NegInf {
			d := uint64(nlo) - uint64(v.Lo)
			if r := d % s; r != 0 {
				step := int64(s - r)
				if nlo > PosInf-step { // no congruent value above nlo
					return AbsVal{}, false
				}
				nlo += step
			}
		}
		if nhi != PosInf {
			d := uint64(nhi) - uint64(v.Lo)
			if r := d % s; r != 0 {
				nhi -= int64(r) // stays >= v.Lo: r <= nhi - v.Lo
			}
		}
		if nlo > nhi {
			return AbsVal{}, false
		}
	}
	return AbsVal{Lo: nlo, Hi: nhi, Stride: v.Stride}.norm(), true
}

// addBound adds two bounds of the same side (inf is that side's
// sentinel); ok=false signals int64 overflow of a finite sum — the
// caller degrades to Top, since the concrete machine wraps.
func addBound(a, b int64, inf int64) (int64, bool) {
	if a == inf || b == inf {
		return inf, true
	}
	if a == NegInf || a == PosInf || b == NegInf || b == PosInf {
		// An opposite-side sentinel slipped in (degenerate operand):
		// treat as overflow rather than do sentinel arithmetic.
		return 0, false
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// absAdd abstracts two's-complement addition: interval sums, with any
// wrap degrading to Top.
func absAdd(a, b AbsVal) AbsVal {
	lo, ok1 := addBound(a.Lo, b.Lo, NegInf)
	hi, ok2 := addBound(a.Hi, b.Hi, PosInf)
	if !ok1 || !ok2 {
		return Top
	}
	return AbsVal{Lo: lo, Hi: hi, Stride: gcd64(a.Stride, b.Stride)}.norm()
}

// absNeg abstracts negation (used to build subtraction). A set that
// may contain MinInt64 degrades to Top because -MinInt64 wraps.
func absNeg(a AbsVal) AbsVal {
	if a.Lo == NegInf {
		return Top
	}
	lo := int64(NegInf)
	if a.Hi != PosInf {
		lo = -a.Hi
	}
	return AbsVal{Lo: lo, Hi: -a.Lo, Stride: a.Stride}.norm()
}

func absSub(a, b AbsVal) AbsVal { return absAdd(a, absNeg(b)) }

// mulBound multiplies two finite bounds; ok=false on overflow.
func mulBound(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// absMul abstracts multiplication: corner products over finite
// intervals, Top on any unbounded operand or overflow. The stride of
// (lo_a + i·s_a)(lo_b + j·s_b) − lo_a·lo_b is a multiple of
// gcd(lo_a·s_b, lo_b·s_a, s_a·s_b).
func absMul(a, b AbsVal) AbsVal {
	if a.Lo == NegInf || a.Hi == PosInf || b.Lo == NegInf || b.Hi == PosInf {
		return Top
	}
	lo, hi := int64(0), int64(0)
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulBound(x, y)
			if !ok {
				return Top
			}
			if first || p < lo {
				lo = p
			}
			if first || p > hi {
				hi = p
			}
			first = false
		}
	}
	s1, ok1 := mulBound(a.Lo, b.Stride)
	s2, ok2 := mulBound(b.Lo, a.Stride)
	s3, ok3 := mulBound(a.Stride, b.Stride)
	stride := int64(1)
	if ok1 && ok2 && ok3 {
		stride = gcd64(gcd64(s1, s2), s3)
	}
	return AbsVal{Lo: lo, Hi: hi, Stride: stride}.norm()
}

// absShl abstracts x << c for a singleton shift count.
func absShl(a AbsVal, c uint) AbsVal {
	if c == 0 {
		return a
	}
	if a.Lo < 0 || a.Hi == PosInf {
		return Top
	}
	if a.Hi > PosInf>>c {
		return Top // shift can carry into or past the sign bit
	}
	return AbsVal{Lo: a.Lo << c, Hi: a.Hi << c, Stride: a.Stride << c}.norm()
}

// absShr abstracts the logical right shift x >> c.
func absShr(a AbsVal, c uint) AbsVal {
	if c == 0 {
		return a
	}
	if a.Lo < 0 {
		// Negative inputs become huge unsigned values; after any shift
		// of >= 1 the result is non-negative and at most MaxUint64>>c.
		hi := int64(uint64(math.MaxUint64) >> c)
		return AbsVal{Lo: 0, Hi: hi, Stride: 1}.norm()
	}
	if a.Hi == PosInf {
		return AbsVal{Lo: 0, Hi: PosInf, Stride: 1}.norm()
	}
	return AbsVal{Lo: a.Lo >> c, Hi: a.Hi >> c, Stride: 1}.norm()
}

// nextPow2Mask returns the smallest 2^k-1 covering v (v >= 0).
func nextPow2Mask(v int64) int64 {
	m := int64(1)
	for m-1 < v && m > 0 {
		m <<= 1
	}
	if m <= 0 {
		return PosInf
	}
	return m - 1
}

// absBitwise abstracts AND/OR/XOR: exact on singletons; bounded by bit
// width when both operands are known non-negative; Top otherwise.
func absBitwise(op isa.Op, a, b AbsVal) AbsVal {
	ca, aok := a.IsConst()
	cb, bok := b.IsConst()
	if aok && bok {
		switch op {
		case isa.AndS:
			return Const(ca & cb)
		case isa.OrS:
			return Const(ca | cb)
		case isa.XorS:
			return Const(ca ^ cb)
		default:
			return Top // not a bitwise op; caller routes only the three
		}
	}
	if a.Lo >= 0 && b.Lo >= 0 && a.Hi != PosInf && b.Hi != PosInf {
		switch op {
		case isa.AndS:
			hi := a.Hi
			if b.Hi < hi {
				hi = b.Hi
			}
			return Range(0, hi)
		case isa.OrS, isa.XorS:
			hi := a.Hi
			if b.Hi > hi {
				hi = b.Hi
			}
			return Range(0, nextPow2Mask(hi))
		default:
			return Top
		}
	}
	return Top
}

// absALU mirrors exec.ALU over the abstract domain: given the abstract
// values of the instruction's sources (in isa.Srcs order), it returns
// the abstract result. Anything not modelled precisely returns Top.
func absALU(ins isa.Instruction, s1, s2 AbsVal) AbsVal {
	switch ins.Op {
	case isa.AddA, isa.AddS:
		return absAdd(s1, s2)
	case isa.SubA, isa.SubS:
		return absSub(s1, s2)
	case isa.MulA:
		return absMul(s1, s2)
	case isa.AddAImm:
		return absAdd(s1, Const(ins.Imm))
	case isa.LoadAImm, isa.LoadSImm:
		return Const(ins.Imm)
	case isa.AndS, isa.OrS, isa.XorS:
		return absBitwise(ins.Op, s1, s2)
	case isa.ShlS:
		if c, ok := s2.IsConst(); ok {
			return absShl(s1, uint(uint64(c)&63))
		}
		return Top
	case isa.ShrS:
		if c, ok := s2.IsConst(); ok {
			return absShr(s1, uint(uint64(c)&63))
		}
		if s1.Lo >= 0 {
			// Any logical shift of a non-negative value stays in [0, hi].
			return AbsVal{Lo: 0, Hi: s1.Hi, Stride: 1}.norm()
		}
		return Top
	case isa.ShlSImm:
		return absShl(s1, uint(uint64(ins.Imm)&63))
	case isa.ShrSImm:
		return absShr(s1, uint(uint64(ins.Imm)&63))
	case isa.FAdd, isa.FSub, isa.FMul, isa.FRecip:
		// Results are float64 bit patterns; the integer domain has no
		// useful structure for them.
		return Top
	case isa.MovSA, isa.MovAS, isa.MovAB, isa.MovBA, isa.MovST, isa.MovTS:
		return s1
	default:
		return Top
	}
}

// refineCond narrows the condition register's abstract value along one
// edge of a conditional branch. ok=false means the edge is infeasible
// for every value in v (the successor is not reachable through it).
func refineCond(op isa.Op, v AbsVal, taken bool) (AbsVal, bool) {
	switch op {
	case isa.BrAZ, isa.BrSZ: // taken iff cond == 0
		if taken {
			return v.Meet(0, 0)
		}
		return excludeZero(v)
	case isa.BrANZ, isa.BrSNZ: // taken iff cond != 0
		if taken {
			return excludeZero(v)
		}
		return v.Meet(0, 0)
	case isa.BrAP, isa.BrSP: // taken iff cond > 0
		if taken {
			return v.Meet(1, PosInf)
		}
		return v.Meet(NegInf, 0)
	case isa.BrAM, isa.BrSM: // taken iff cond < 0
		if taken {
			return v.Meet(NegInf, -1)
		}
		return v.Meet(0, PosInf)
	default:
		return v, true
	}
}

// excludeZero removes 0 from v where the interval representation can
// express it (only at the interval's ends).
func excludeZero(v AbsVal) (AbsVal, bool) {
	if c, ok := v.IsConst(); ok && c == 0 {
		return AbsVal{}, false
	}
	step := v.Stride
	if step < 1 {
		step = 1
	}
	if v.Lo == 0 {
		v.Lo += step
	}
	if v.Hi == 0 {
		v.Hi -= step
	}
	if v.Lo != NegInf && v.Hi != PosInf && v.Lo > v.Hi {
		return AbsVal{}, false
	}
	return v.norm(), true
}

// AbsRegs is one abstract register-file state: an AbsVal per flat
// register index. The zero value models the architectural reset state
// (every register the singleton {0}).
type AbsRegs [isa.NumRegs]AbsVal

// EntryFromState captures a concrete architectural state as the
// abstract entry state: every register becomes a singleton. This is
// the entry for analyzing a specific (program, initial state) pair —
// exactly what the simulator runs.
func EntryFromState(st *exec.State) AbsRegs {
	var e AbsRegs
	for i := 0; i < isa.NumRegs; i++ {
		e[i] = Const(st.Reg(isa.FromFlat(i)))
	}
	return e
}

// EntryTop returns the unconstrained entry state (any initial register
// values — the right entry when the initial state is unknown).
func EntryTop() AbsRegs {
	var e AbsRegs
	for i := range e {
		e[i] = Top
	}
	return e
}

// AbsInt is the result of the abstract interpretation of one program:
// per-instruction pre-states and, for memory instructions, abstract
// effective addresses. Build it with Analysis.Interpret.
type AbsInt struct {
	// An is the underlying static analysis.
	An *Analysis
	// Reached marks instructions the abstract execution can reach. It
	// can be smaller than An.Reachable when branch refinement proves
	// edges infeasible, and is never larger.
	Reached []bool
	// Addr is the abstract effective address of each load/store
	// (meaningless for non-memory instructions).
	Addr []AbsVal
	// MemWords is the memory image size the analysis assumed for the
	// oob-access rule (0 = unknown: only definitely-negative addresses
	// are out of range).
	MemWords int

	// The pre-states are stored only for the tracked registers, those
	// some instruction writes or some branch refines: every other
	// register holds its entry value at every reached instruction.
	entry AbsRegs
	slot  [isa.NumRegs]int16 // position among the tracked registers, -1 if untracked
	width int                // number of tracked registers
	in    []AbsVal           // pre-state of instruction i: in[i*width : (i+1)*width]
}

// In returns the abstract value of register r on entry to instruction i
// (the join over all CFG edges into it). Valid only where Reached.
func (ai *AbsInt) In(i int, r isa.Reg) AbsVal {
	if s := ai.slot[r.Flat()]; s >= 0 {
		return ai.in[i*ai.width+int(s)]
	}
	return ai.entry[r.Flat()]
}

// track assigns a slot to every register some instruction writes or
// some conditional branch refines (Interpret refines the tested
// register when the branch's two edges lead to different
// instructions). It returns each instruction's refined register's
// slot, -1 where none is.
func (ai *AbsInt) track(prog []isa.Instruction, uops []isa.Uop) []int16 {
	for r := range ai.slot {
		ai.slot[r] = -1
	}
	add := func(r isa.Reg) int16 {
		if ai.slot[r.Flat()] < 0 {
			ai.slot[r.Flat()] = int16(ai.width)
			ai.width++
		}
		return ai.slot[r.Flat()]
	}
	cond := make([]int16, len(prog))
	for i, u := range uops {
		if u.HasDst {
			add(u.Dst)
		}
		cond[i] = -1
		if u.Cond && int(prog[i].Imm) != i+1 {
			cond[i] = add(u.CondReg)
		}
	}
	return cond
}

// widenAfter is the number of joins into a loop head tolerated before
// widening kicks in; a couple of precise rounds let small constant
// iteration patterns (e.g. a two-phase flag) settle exactly.
const widenAfter = 2

// safetyWiden bounds join counts anywhere (defence against pathological
// CFGs; ordinary programs stabilise via loop-head widening alone).
const safetyWiden = 64

// Interpret runs the abstract interpretation from the given entry
// state, whose values must be canonical (as Const, Range, Top and the
// zero value are). memWords is the memory-image size in words for the
// oob rule (0 = unknown).
func (a *Analysis) Interpret(entry AbsRegs, memWords int) *AbsInt {
	n := len(a.Prog.Instructions)
	ai := &AbsInt{
		An:       a,
		Reached:  make([]bool, n),
		Addr:     make([]AbsVal, n),
		MemWords: memWords,
		entry:    entry,
	}
	if n == 0 {
		return ai
	}
	uops := isa.Predecode(a.Prog)
	cond := ai.track(a.Prog.Instructions, uops)
	w := ai.width
	// One block holds every pre-state, then a scratch state.
	block := make([]AbsVal, (n+1)*w)
	ai.in = block[: n*w : n*w]
	out := block[n*w:]
	for r, s := range ai.slot {
		if s >= 0 {
			ai.in[s] = entry[r]
		}
	}
	val := func(st []AbsVal, r isa.Reg) AbsVal {
		if s := ai.slot[r.Flat()]; s >= 0 {
			return st[s]
		}
		return entry[r.Flat()]
	}
	isHead := make([]bool, n)
	for _, l := range a.Loops {
		isHead[l.Head] = true
	}
	joins := make([]int, n)

	ai.Reached[0] = true
	// The worklist is a FIFO ring of n slots: inWork keeps each
	// instruction in it at most once.
	work := make([]int, n)
	inWork := make([]bool, n)
	head, pending := 0, 1
	push := func(s int) {
		if !inWork[s] {
			work[(head+pending)%n] = s
			pending++
			inWork[s] = true
		}
	}
	inWork[0] = true

	for pending > 0 {
		i := work[head]
		head, pending = (head+1)%n, pending-1
		inWork[i] = false

		ins, u := a.Prog.Instructions[i], &uops[i]
		copy(out, ai.in[i*w:(i+1)*w])
		var s1, s2 AbsVal
		if u.NSrc > 0 {
			s1 = val(out, u.Src[0])
		}
		if u.NSrc > 1 {
			s2 = val(out, u.Src[1])
		}
		if u.HasDst {
			if u.Load {
				out[ai.slot[u.Dst.Flat()]] = Top // memory contents are not modelled
			} else {
				out[ai.slot[u.Dst.Flat()]] = absALU(ins, s1, s2)
			}
		}

		// Two distinguishable edges refine the tested register, slot c:
		// each edge carries out with out[c] replaced by its refinement of
		// the tested value.
		c := cond[i]
		var tested AbsVal
		if c >= 0 {
			tested = out[c]
		}
		for _, s := range a.Succs[i] {
			if c >= 0 {
				refined, feasible := refineCond(ins.Op, tested, s == int(ins.Imm))
				if !feasible {
					continue
				}
				out[c] = refined
			}
			in := ai.in[s*w : (s+1)*w]
			if !ai.Reached[s] {
				copy(in, out)
				ai.Reached[s] = true
				push(s)
				continue
			}
			changed := false
			widen := (isHead[s] && joins[s] >= widenAfter) || joins[s] >= safetyWiden
			for r, v := range out {
				if v == in[r] {
					continue // a canonical value joins or widens with itself to itself
				}
				var nv AbsVal
				if widen {
					nv = in[r].Widen(v)
				} else {
					nv = in[r].Join(v)
				}
				if nv != in[r] {
					in[r] = nv
					changed = true
				}
			}
			if changed {
				joins[s]++
				push(s)
			}
		}
	}

	// Final pass: abstract effective addresses of memory instructions.
	for i, ins := range a.Prog.Instructions {
		if !ai.Reached[i] || !ins.Op.IsMem() {
			continue
		}
		ai.Addr[i] = absAdd(ai.In(i, isa.A(int(ins.J))), Const(ins.Imm))
	}
	return ai
}

// InterpretState is the analyze-this-exact-run form: the entry state is
// the concrete initial state and the memory size comes from its image.
func (a *Analysis) InterpretState(st *exec.State) *AbsInt {
	return a.Interpret(EntryFromState(st), st.Mem.Size())
}

// DefinitelyOOB reports whether every address in the instruction's
// abstract address set faults: entirely negative, or entirely at or
// beyond the memory image when its size is known.
func (ai *AbsInt) DefinitelyOOB(i int) bool {
	v := ai.Addr[i]
	if v.Hi != PosInf && v.Hi < 0 {
		return true
	}
	if ai.MemWords > 0 && v.Lo != NegInf && v.Lo >= int64(ai.MemWords) {
		return true
	}
	return false
}
