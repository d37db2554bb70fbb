package dfa_test

import (
	"reflect"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/exec"
	"ruu/internal/isa"
)

// prog assembles a test program.
func prog(t *testing.T, src string) *isa.Program {
	t.Helper()
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return u.Prog
}

func TestCFGLoop(t *testing.T) {
	p := prog(t, `
    lai   A0, 2
loop:
    addai A0, A0, -1
    janz  loop
    halt
`)
	a := dfa.Analyze(p)
	wantSuccs := [][]int{{1}, {2}, {1, 3}, nil}
	for i, want := range wantSuccs {
		if got := a.Succs[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("Succs[%d] = %v, want %v", i, got, want)
		}
	}
	wantPreds := [][]int{nil, {0, 2}, {1}, {2}}
	for i, want := range wantPreds {
		if got := a.Preds[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("Preds[%d] = %v, want %v", i, got, want)
		}
	}
	for i := range p.Instructions {
		if !a.Reachable[i] {
			t.Errorf("instruction %d unexpectedly unreachable", i)
		}
	}
	if want := []dfa.Loop{{Head: 1, Back: 2}}; !reflect.DeepEqual(a.Loops, want) {
		t.Errorf("Loops = %v, want %v", a.Loops, want)
	}
	if !a.InLoop(1) || !a.InLoop(2) || a.InLoop(0) || a.InLoop(3) {
		t.Errorf("InLoop membership wrong: %v", a.Loops)
	}
}

func TestCFGUnreachable(t *testing.T) {
	p := prog(t, `
    jmp over
    nop
over:
    halt
`)
	a := dfa.Analyze(p)
	if a.Reachable[1] {
		t.Error("instruction 1 (behind jmp) should be unreachable")
	}
	if !a.Reachable[2] {
		t.Error("jump target should be reachable")
	}
}

func TestDefUseChains(t *testing.T) {
	p := prog(t, `
    lai   A1, 5
    addai A2, A1, 1
    adda  A3, A1, A2
    halt
`)
	a := dfa.Analyze(p)
	if want := []int{1, 2}; !reflect.DeepEqual(a.UsesOf[0], want) {
		t.Errorf("UsesOf[0] = %v, want %v", a.UsesOf[0], want)
	}
	if want := []int{2}; !reflect.DeepEqual(a.UsesOf[1], want) {
		t.Errorf("UsesOf[1] = %v, want %v", a.UsesOf[1], want)
	}
	if len(a.UsesOf[2]) != 0 {
		t.Errorf("UsesOf[2] = %v, want none (A3 never read)", a.UsesOf[2])
	}
	if got := a.DefUseEdges(); got != 3 {
		t.Errorf("DefUseEdges = %d, want 3", got)
	}
}

func TestDefUseThroughLoop(t *testing.T) {
	// A1 is defined before the loop (instr 0) and inside it (instr 3);
	// both definitions reach the loop-body read at instr 2.
	p := prog(t, `
    lai   A1, 1
    lai   A0, 2
loop:
    addai A2, A1, 1
    addai A1, A2, 1
    addai A0, A0, -1
    janz  loop
    halt
`)
	a := dfa.Analyze(p)
	if want := []int{2}; !reflect.DeepEqual(a.UsesOf[0], want) {
		t.Errorf("UsesOf[0] = %v, want %v (pre-loop def reaches body read)", a.UsesOf[0], want)
	}
	found := false
	for _, u := range a.UsesOf[3] {
		if u == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("UsesOf[3] = %v, want it to include 2 (loop-carried def reaches next iteration)", a.UsesOf[3])
	}
}

func TestComputeBoundChain(t *testing.T) {
	// Straight line: the fmul waits for both immediates, the fadd for
	// the fmul; with Move=1, FMul=7, FAdd=6 the chain completes at 15.
	p := prog(t, `
    lsi  S1, 2
    lsi  S2, 3
    fmul S3, S1, S2
    fadd S4, S3, S3
    halt
`)
	b, err := dfa.ComputeBound(p, exec.NewState(nil), dfa.BoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.DynInstrs != 5 {
		t.Errorf("DynInstrs = %d, want 5", b.DynInstrs)
	}
	if b.CritPath != 15 {
		t.Errorf("CritPath = %d, want 15 (1 + 7 + 6 through the fmul/fadd chain, fmul start gated by the second lsi)", b.CritPath)
	}
	if b.Cycles != 15 {
		t.Errorf("Cycles = %d, want 15", b.Cycles)
	}
}

func TestComputeBoundTakenBranchBubble(t *testing.T) {
	// Two-trip countdown loop: 6 dynamic instructions, one taken branch,
	// so the serial-issue floor is 7 while the A0 chain reaches 6.
	p := prog(t, `
    lai   A0, 2
loop:
    addai A0, A0, -1
    janz  loop
    halt
`)
	b, err := dfa.ComputeBound(p, exec.NewState(nil), dfa.BoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.DynInstrs != 6 {
		t.Errorf("DynInstrs = %d, want 6", b.DynInstrs)
	}
	if b.CritPath != 6 {
		t.Errorf("CritPath = %d, want 6", b.CritPath)
	}
	if b.Cycles != 7 {
		t.Errorf("Cycles = %d, want 7 (6 instructions + 1 taken-branch bubble)", b.Cycles)
	}

	// A jump always redirects fetch, even to its own fall-through.
	b, err = dfa.ComputeBound(prog(t, `
    jmp  next
next:
    halt
`), exec.NewState(nil), dfa.BoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles != 3 {
		t.Errorf("jmp to the next instruction: Cycles = %d, want 3 (2 instructions + 1 jump bubble)", b.Cycles)
	}
}

func TestComputeBoundForwardingCap(t *testing.T) {
	src := `
    lai   A1, 0
    lda   A2, 100(A1)
    addai A3, A2, 1
    halt
`
	full, err := dfa.ComputeBound(prog(t, src), exec.NewState(nil), dfa.BoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := dfa.ComputeBound(prog(t, src), exec.NewState(nil), dfa.BoundConfig{FwdLatency: 2, NoMemDep: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.CritPath != 8 {
		t.Errorf("full-latency CritPath = %d, want 8 (1 + 5 + 2)", full.CritPath)
	}
	if fwd.CritPath != 5 {
		t.Errorf("forward-capped CritPath = %d, want 5 (1 + 2 + 2)", fwd.CritPath)
	}
	// With the memory-dependence tightening on (the default), the first
	// touch of an address cannot forward — there is nothing to forward
	// from — so the load pays the full memory latency despite the cap.
	tight, err := dfa.ComputeBound(prog(t, src), exec.NewState(nil), dfa.BoundConfig{FwdLatency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tight.CritPath != 8 {
		t.Errorf("tightened first-touch CritPath = %d, want 8 (1 + 5 + 2)", tight.CritPath)
	}
	// A repeat access to the same address can forward and keeps the cap:
	// the second load completes at 2 + 2 = 4 while the first-touch load
	// still dominates the path at 1 + 5 = 6.
	src2 := `
    lai   A1, 0
    lda   A2, 100(A1)
    lda   A4, 100(A1)
    addai A3, A4, 1
    halt
`
	repeat, err := dfa.ComputeBound(prog(t, src2), exec.NewState(nil), dfa.BoundConfig{FwdLatency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.CritPath != 6 {
		t.Errorf("repeat-touch CritPath = %d, want 6 (first-touch load 1 + 5)", repeat.CritPath)
	}
}

// TestComputeBoundStoreLoadEdge pins the store→load dependence: a load
// of an address a store wrote cannot start before the store's data and
// address existed, even though no register connects them.
func TestComputeBoundStoreLoadEdge(t *testing.T) {
	// A long A-chain makes the stored data late; the load of the stored
	// address then inherits that time through memory alone.
	src := `
    lai   A1, 0
    mula  A2, A1, A1
    mula  A2, A2, A2
    mula  A2, A2, A2
    sta   A2, 50(A1)
    lda   A3, 50(A1)
    addai A4, A3, 1
    halt
`
	tight, err := dfa.ComputeBound(prog(t, src), exec.NewState(nil), dfa.BoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := dfa.ComputeBound(prog(t, src), exec.NewState(nil), dfa.BoundConfig{NoMemDep: true})
	if err != nil {
		t.Fatal(err)
	}
	if tight.MemDepEdges != 1 {
		t.Errorf("MemDepEdges = %d, want 1", tight.MemDepEdges)
	}
	if loose.MemDepEdges != 0 {
		t.Errorf("NoMemDep MemDepEdges = %d, want 0", loose.MemDepEdges)
	}
	if tight.CritPath <= loose.CritPath {
		t.Errorf("store→load edge did not tighten: tight %d, loose %d", tight.CritPath, loose.CritPath)
	}
	// The load starts no earlier than the mul chain's completion (1 for
	// the lai plus three 6-cycle multiplies = 19) and takes the full
	// memory latency; its consumer adds 2.
	if want := int64(1 + 3*6 + 5 + 2); tight.CritPath != want {
		t.Errorf("tight CritPath = %d, want %d", tight.CritPath, want)
	}
}

func TestComputeCensus(t *testing.T) {
	p := prog(t, `
    lai   A1, 1
    addai A1, A1, 1
    movsa S1, A1
    lai   A1, 9
    halt
`)
	c, err := dfa.ComputeCensus(p, exec.NewState(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := dfa.Census{DynInstrs: 5, RAW: 2, WAR: 1, WAW: 2}
	if c != want {
		t.Errorf("Census = %+v, want %+v", c, want)
	}
}

func TestComputeCensusSelfReadIsNotWAR(t *testing.T) {
	// addai A1, A1, 1: the instruction's own operand read must not pair
	// with its own write as a WAR hazard.
	p := prog(t, `
    lai   A1, 1
    addai A1, A1, 1
    halt
`)
	c, err := dfa.ComputeCensus(p, exec.NewState(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.WAR != 0 {
		t.Errorf("WAR = %d, want 0 (self-read is not an anti dependence)", c.WAR)
	}
	if c.WAW != 1 || c.RAW != 1 {
		t.Errorf("RAW/WAW = %d/%d, want 1/1", c.RAW, c.WAW)
	}
}

func TestBoundSpeedup(t *testing.T) {
	b := dfa.Bound{Cycles: 100}
	if got := b.Speedup(250); got != 2.5 {
		t.Errorf("Speedup = %v, want 2.5", got)
	}
}

func TestRuleByName(t *testing.T) {
	for r := dfa.Rule(0); r < dfa.NumRules; r++ {
		got, ok := dfa.RuleByName(r.String())
		if !ok || got != r {
			t.Errorf("RuleByName(%q) = %v, %v", r.String(), got, ok)
		}
	}
	if _, ok := dfa.RuleByName("no-such-rule"); ok {
		t.Error("RuleByName accepted an unknown name")
	}
}
