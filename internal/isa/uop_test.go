package isa_test

import (
	"slices"
	"testing"

	"ruu/internal/isa"
)

// checkUop asserts that u, the predecoded form of ins, says what the
// per-instruction decode (Op.Info, Instruction.Srcs and Dst, Op.CondReg,
// IsBranch, IsConditional) says.
func checkUop(t *testing.T, ins isa.Instruction, u isa.Uop) {
	t.Helper()
	info := ins.Op.Info()
	if u.Unit != info.Unit || u.Load != info.Load || u.Store != info.Store {
		t.Errorf("%v: unit/load/store = %v/%v/%v, want %v/%v/%v", ins, u.Unit, u.Load, u.Store, info.Unit, info.Load, info.Store)
	}
	if u.Branch != ins.Op.IsBranch() || u.Cond != ins.Op.IsConditional() {
		t.Errorf("%v: branch/cond = %v/%v, want %v/%v", ins, u.Branch, u.Cond, ins.Op.IsBranch(), ins.Op.IsConditional())
	}
	if dst, ok := ins.Dst(); u.Dst != dst || u.HasDst != ok {
		t.Errorf("%v: dst = %v/%v, want %v/%v", ins, u.Dst, u.HasDst, dst, ok)
	}
	if srcs := ins.Srcs(nil); int(u.NSrc) > len(u.Src) || !slices.Equal(u.Src[:u.NSrc], srcs) {
		t.Errorf("%v: srcs = %v (%d), want %v", ins, u.Src, u.NSrc, srcs)
	}
	for _, r := range u.Src[min(int(u.NSrc), len(u.Src)):] {
		if r != isa.None {
			t.Errorf("%v: unused source slot holds %v", ins, r)
		}
	}
	if cr, _ := ins.Op.CondReg(); u.CondReg != cr {
		t.Errorf("%v: cond reg = %v, want %v", ins, u.CondReg, cr)
	}
}

// TestPredecodeAgreesWithDecode checks every opcode, with assorted
// operand fields, against the per-instruction decode. It also pins what
// the engines rely on when they index the latency table by Uop.Unit
// without fu.Latencies.Of's check: every op that can reach a functional
// unit — anything but a branch, NOP or HALT — has a unit.
func TestPredecodeAgreesWithDecode(t *testing.T) {
	fields := []struct {
		i, j, k uint8
		imm     int64
	}{
		{0, 0, 0, 0}, {1, 2, 3, 5}, {7, 6, 5, 63}, {3, 7, 1, -4}, {5, 0, 7, 1 << 14},
	}
	var prog isa.Program
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for _, f := range fields {
			prog.Instructions = append(prog.Instructions, isa.Instruction{Op: op, I: f.i, J: f.j, K: f.k, Imm: f.imm})
		}
		if executes := !op.IsBranch() && op != isa.Nop && op != isa.Halt; executes && op.Info().Unit == isa.UnitNone {
			t.Errorf("%s reaches a functional unit but has no unit class", op)
		}
	}
	uops := isa.Predecode(&prog)
	if len(uops) != len(prog.Instructions) {
		t.Fatalf("Predecode returned %d uops for %d instructions", len(uops), len(prog.Instructions))
	}
	for pc, ins := range prog.Instructions {
		checkUop(t, ins, uops[pc])
	}
}
