package isa

// Uop is the predecoded form of one static instruction: the facts the
// decode-and-issue stage derives from an instruction's bits, which do
// not change from one dynamic instance to the next. In the paper the
// decode stage decodes an instruction once and the RUU entry it fills
// carries the source tags, the destination and the functional unit
// until commit; the simulator likewise decodes each static instruction
// once per run (Predecode) and the machine and the issue engines read
// the table by pc.
//
// Invariant: nothing on the per-cycle path of internal/machine or
// internal/issue calls Op.Info, Instruction.Srcs or Instruction.Dst;
// they read a Uop instead, and take a latency from the fu.Latencies
// table at Uop.Unit. The one exception is the parcel count the
// instruction-buffer fetch model reads at fetch.
type Uop struct {
	// Unit is the functional-unit class that executes the instruction
	// (UnitNone for branches, NOP and HALT).
	Unit Unit
	// Load and Store mark memory reads and writes.
	Load, Store bool
	// Branch marks a control transfer and Cond a conditional one.
	Branch, Cond bool
	// HasDst reports whether the instruction writes Dst.
	HasDst bool
	Dst    Reg
	// NSrc is the number of registers read, Src[:NSrc] in the order
	// Instruction.Srcs reports them.
	NSrc uint8
	Src  [2]Reg
	// CondReg is the register a conditional branch tests (None
	// otherwise).
	CondReg Reg
}

// Predecode decodes every instruction of p once, returning the table
// indexed by pc. It derives each Uop from Op.Info, Instruction.Srcs,
// Instruction.Dst and Op.CondReg, so the two decodes cannot disagree.
func Predecode(p *Program) []Uop {
	uops := make([]Uop, len(p.Instructions))
	for pc, ins := range p.Instructions {
		info := ins.Op.Info()
		u := &uops[pc]
		u.Unit, u.Load, u.Store = info.Unit, info.Load, info.Store
		u.Branch, u.Cond = ins.Op.IsBranch(), ins.Op.IsConditional()
		u.Dst, u.HasDst = ins.Dst()
		u.NSrc = uint8(len(ins.Srcs(u.Src[:0])))
		u.CondReg, _ = ins.Op.CondReg()
	}
	return uops
}
