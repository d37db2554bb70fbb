package dfa

import (
	"testing"

	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/livermore"
	"ruu/internal/progsynth"
)

func TestAbsValContains(t *testing.T) {
	cases := []struct {
		v    AbsVal
		in   []int64
		out  []int64
		name string
	}{
		{Const(7), []int64{7}, []int64{6, 8, 0}, "const"},
		{Range(-3, 5), []int64{-3, 0, 5}, []int64{-4, 6}, "range"},
		{AbsVal{Lo: 10, Hi: 30, Stride: 4}.norm(), []int64{10, 14, 26}, []int64{12, 9, 31}, "stride"},
		{Top, []int64{NegInf, -1, 0, PosInf}, nil, "top"},
	}
	for _, c := range cases {
		for _, x := range c.in {
			if !c.v.Contains(x) {
				t.Errorf("%s: %v should contain %d", c.name, c.v, x)
			}
		}
		for _, x := range c.out {
			if c.v.Contains(x) {
				t.Errorf("%s: %v should not contain %d", c.name, c.v, x)
			}
		}
	}
}

func TestAbsValNorm(t *testing.T) {
	// Hi snaps onto the congruence lattice; one-point intervals become
	// singletons.
	v := AbsVal{Lo: 4, Hi: 13, Stride: 4}.norm()
	if v.Hi != 12 {
		t.Errorf("norm snapped Hi = %d, want 12", v.Hi)
	}
	v = AbsVal{Lo: 4, Hi: 7, Stride: 8}.norm()
	if c, ok := v.IsConst(); !ok || c != 4 {
		t.Errorf("norm of one-point stride interval = %v, want singleton 4", v)
	}
}

func TestAbsValJoin(t *testing.T) {
	// Joining two constants records their difference as the stride.
	j := Const(8).Join(Const(20))
	if j.Lo != 8 || j.Hi != 20 || j.Stride != 12 {
		t.Errorf("Join(8, 20) = %v, want [8,20]/12", j)
	}
	if !j.Contains(8) || !j.Contains(20) || j.Contains(14) {
		t.Errorf("Join(8, 20) membership wrong: %v", j)
	}
	// Joining strided values folds anchors into the gcd.
	a := AbsVal{Lo: 0, Hi: 40, Stride: 8}.norm()
	b := AbsVal{Lo: 4, Hi: 44, Stride: 8}.norm()
	j = a.Join(b)
	if j.Stride != 4 {
		t.Errorf("Join strides 8/8 offset 4 = %v, want stride 4", j)
	}
}

func TestAbsValWiden(t *testing.T) {
	w := Range(0, 10).Widen(Range(0, 11))
	if w.Hi != PosInf || w.Lo != 0 {
		t.Errorf("Widen growing Hi = %v, want [0,+inf]", w)
	}
	w = Range(0, 10).Widen(Range(-1, 10))
	if w.Lo != NegInf || w.Hi != 10 {
		t.Errorf("Widen growing Lo = %v, want [-inf,10]", w)
	}
	w = Range(0, 10).Widen(Range(2, 8))
	if w != Range(0, 10) {
		t.Errorf("Widen of subset changed value: %v", w)
	}
}

func TestAbsValMeet(t *testing.T) {
	v := AbsVal{Lo: 10, Hi: 50, Stride: 8}.norm()
	m, ok := v.Meet(13, 40)
	if !ok || m.Lo != 18 || m.Hi != 34 || m.Stride != 8 {
		t.Errorf("Meet = %v ok=%v, want [18,34]/8", m, ok)
	}
	if _, ok := Const(5).Meet(6, 10); ok {
		t.Error("Meet of disjoint sets should be infeasible")
	}
	if _, ok := v.Meet(11, 17); ok {
		t.Error("Meet with no congruent member should be infeasible")
	}
}

// TestAbsIntConstants checks constant propagation through moves and
// arithmetic and the loop-head widening of an induction variable.
func TestAbsIntConstants(t *testing.T) {
	p := &isa.Program{Instructions: []isa.Instruction{
		{Op: isa.LoadAImm, I: 1, Imm: 100},     // 0: A1 = 100
		{Op: isa.AddAImm, I: 2, J: 1, Imm: 28}, // 1: A2 = A1 + 28
		{Op: isa.LoadAImm, I: 0, Imm: 4},       // 2: A0 = 4 (counter)
		{Op: isa.AddAImm, I: 2, J: 2, Imm: 8},  // 3: A2 += 8   <- loop head
		{Op: isa.AddAImm, I: 0, J: 0, Imm: -1}, // 4: A0 -= 1
		{Op: isa.BrANZ, Imm: 3},                // 5: loop while A0 != 0
		{Op: isa.Halt},                         // 6
	}}
	a := Analyze(p)
	ai := a.Interpret(AbsRegs{}, 0)

	if v := ai.In(1, isa.A(1)); !mustConst(v, 100) {
		t.Errorf("A1 before #1 = %v, want 100", v)
	}
	if v := ai.In(2, isa.A(2)); !mustConst(v, 128) {
		t.Errorf("A2 before #2 = %v, want 128", v)
	}
	// At the loop head A2 has been widened but keeps its stride-8
	// congruence anchored at 128, and A0 stays within [-inf, 4] at
	// worst; both concrete sequences must be contained.
	a2 := ai.In(3, isa.A(2))
	for _, x := range []int64{128, 136, 144, 152} {
		if !a2.Contains(x) {
			t.Errorf("loop-head A2 = %v should contain %d", a2, x)
		}
	}
	a0 := ai.In(4, isa.A(0))
	for _, x := range []int64{4, 3, 2, 1} {
		if !a0.Contains(x) {
			t.Errorf("loop-body A0 = %v should contain %d", a0, x)
		}
	}
	// Branch refinement: the fallthrough of jnz (A0 == 0) reaches Halt
	// with A0 pinned to the singleton 0.
	if v := ai.In(6, isa.A(0)); !mustConst(v, 0) {
		t.Errorf("A0 after loop exit = %v, want 0", v)
	}
}

func mustConst(v AbsVal, want int64) bool {
	c, ok := v.IsConst()
	return ok && c == want
}

// TestAbsIntInfeasibleEdge checks that branch refinement prunes edges
// no value of the condition register can take.
func TestAbsIntInfeasibleEdge(t *testing.T) {
	p := &isa.Program{Instructions: []isa.Instruction{
		{Op: isa.LoadAImm, I: 0, Imm: 0}, // 0: A0 = 0
		{Op: isa.BrAZ, Imm: 3},           // 1: always taken
		{Op: isa.LoadAImm, I: 5, Imm: 1}, // 2: dead fallthrough
		{Op: isa.Halt},                   // 3
	}}
	a := Analyze(p)
	ai := a.Interpret(AbsRegs{}, 0)
	if ai.Reached[2] {
		t.Error("instruction 2 is only reachable through an infeasible edge")
	}
	if !ai.Reached[3] {
		t.Error("instruction 3 must be reached through the taken edge")
	}
}

// checkSoundness replays the program concretely and asserts the
// abstract state over-approximates it at every step: each register
// value lies inside its interval at the instruction's program point,
// and each memory access's effective address lies inside the abstract
// address. This is the soundness contract everything downstream
// (memdep edges, oob-access, the tightened bound) relies on.
func checkSoundness(t *testing.T, name string, p *isa.Program, st *exec.State) {
	t.Helper()
	a := Analyze(p)
	ai := a.InterpretState(st)
	checked := 0
	h := exec.Hooks{
		Pre: func(pc int) {
			if !ai.Reached[pc] {
				t.Fatalf("%s: executor reached pc %d the abstract interpretation did not", name, pc)
			}
			for r := 0; r < isa.NumRegs; r++ {
				got := st.Reg(isa.FromFlat(r))
				if !ai.In(pc, isa.FromFlat(r)).Contains(got) {
					t.Fatalf("%s: pc %d (%v): %v = %d outside abstract %v",
						name, pc, p.Instructions[pc], isa.FromFlat(r), got, ai.In(pc, isa.FromFlat(r)))
				}
			}
			checked++
		},
		Mem: func(ev exec.MemEvent) {
			if !ai.Addr[ev.PC].Contains(ev.Addr) {
				t.Fatalf("%s: pc %d (%v): address %d outside abstract %v",
					name, ev.PC, ev.Ins, ev.Addr, ai.Addr[ev.PC])
			}
		},
	}
	if _, err := st.RunHooks(p, 0, h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if checked == 0 {
		t.Fatalf("%s: soundness check executed no instructions", name)
	}
}

// TestAbsIntSoundKernels is the kernel half of the soundness property:
// all 14 Livermore kernels under their real initial states.
func TestAbsIntSoundKernels(t *testing.T) {
	for _, k := range livermore.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			unit, err := k.Unit()
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.NewState()
			if err != nil {
				t.Fatal(err)
			}
			checkSoundness(t, k.Name, unit.Prog, st)
		})
	}
}

// TestAbsIntSoundSynthesized is the corpus half: randomly synthesized
// programs with nested loops and conditional branches.
func TestAbsIntSoundSynthesized(t *testing.T) {
	opts := progsynth.Options{Nested: true, CondBranches: true}
	for seed := int64(1); seed <= 25; seed++ {
		p := progsynth.Generate(seed, opts)
		st := progsynth.NewState(seed, opts)
		checkSoundness(t, "seed", p, st)
	}
}
