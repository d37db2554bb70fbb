package tagunit_test

import (
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
)

// loopSrc is a simple counted loop with a data-dependent exit.
const loopSrc = `
.array buf 16 3
    lai   A0, 12
    lai   A1, 0
loop:
    addai A0, A0, -1
    lda   A2, =buf(A1)
    adda  A3, A3, A2
    addai A1, A1, 1
    janz  loop
    halt
`

func runSpec(t *testing.T, size int, src string) (machine.Result, *exec.State, *tagunit.Engine) {
	t.Helper()
	return run(t, tagunit.Config{Stations: tagunit.Queue(size)}, machine.Config{Speculate: true}, src)
}

// TestSpeculationCorrectness: the speculative queue produces the
// architectural result and counts of the functional reference, at any
// size (a 3-entry queue forces branches to wait for entries; a large one
// holds several loop branches outstanding at once — "no hard limit to
// the number of branches that can be predicted").
func TestSpeculationCorrectness(t *testing.T) {
	cases := []struct {
		name string
		size int
		src  string
	}{
		{"loop", 12, loopSrc},
		{"tiny", 3, loopSrc},
		{"deep", 32, loopSrc},
		{"jmp", 8, `
    lai A1, 1
    jmp over
    nop
over:
    lai A2, 2
    halt
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			unit := asm.MustAssemble(tc.src)
			ref, refRes, err := exec.Reference(unit.Prog, exec.NewState(unit.NewMemory()), 0)
			if err != nil {
				t.Fatal(err)
			}
			res, st, e := runSpec(t, tc.size, tc.src)
			if !st.EqualRegs(ref) {
				t.Fatalf("registers differ: %v", st.DiffRegs(ref))
			}
			if res.Stats.Instructions != refRes.Executed {
				t.Fatalf("instructions %d, want %d", res.Stats.Instructions, refRes.Executed)
			}
			if res.Stats.Branches != refRes.Branches || res.Stats.Taken != refRes.Taken {
				t.Fatalf("branch stats %d/%d, want %d/%d",
					res.Stats.Branches, res.Stats.Taken, refRes.Branches, refRes.Taken)
			}
			if b, taken, _ := e.BranchStats(); b != refRes.Branches || taken != refRes.Taken {
				t.Fatalf("engine BranchStats %d/%d, want %d/%d", b, taken, refRes.Branches, refRes.Taken)
			}
		})
	}
}

// TestSpeculationRemovesDeadCycles: with prediction, the loop branch no
// longer blocks the decode stage, so the loop runs faster than the
// non-speculative queue — §7's motivation.
func TestSpeculationRemovesDeadCycles(t *testing.T) {
	cfg := tagunit.Config{Stations: tagunit.Queue(16)}
	spec, _, _ := run(t, cfg, machine.Config{Speculate: true}, loopSrc)
	plain, _, _ := run(t, cfg, machine.Config{}, loopSrc)
	if spec.Stats.Cycles >= plain.Stats.Cycles {
		t.Fatalf("speculation not faster: %d vs %d", spec.Stats.Cycles, plain.Stats.Cycles)
	}
}

// TestMispredictionSquashRestoresCounters: a loop exit the predictor
// necessarily mispredicts (trained taken, exits once) is squashed with
// the NI/LI counters unwound — SelfCheck, every cycle and after the run,
// finds each counter equal to the instances left in the queue, so none
// is left set once it drains — and the loop's result is intact.
func TestMispredictionSquashRestoresCounters(t *testing.T) {
	res, st, e := runSpec(t, 16, loopSrc)
	if res.Stats.Mispredicts == 0 {
		t.Fatal("loop exit was never mispredicted")
	}
	if !e.Drained() {
		t.Fatal("queue not drained")
	}
	if st.A[3] != 36 { // 12 iterations of +3
		t.Fatalf("A3 = %d, want 36", st.A[3])
	}
}

// TestNoSpeculationOnImpreciseMachines: the pool organisations cannot
// nullify a wrong path, so the machine does not speculate on them.
func TestNoSpeculationOnImpreciseMachines(t *testing.T) {
	res, st, e := run(t, tagunit.Config{Stations: tagunit.Pool(8)}, machine.Config{Speculate: true}, loopSrc)
	if b, _, _ := e.BranchStats(); b != 0 || res.Stats.Mispredicts != 0 {
		t.Fatalf("%d branches entered the pool, %d mispredicted", b, res.Stats.Mispredicts)
	}
	if res.Stats.Branches != 12 || st.A[3] != 36 {
		t.Fatalf("branches = %d, A3 = %d; want 12, 36", res.Stats.Branches, st.A[3])
	}
}

// TestWrongPathMemoryOpsSquashed: a branch waiting on a slow chain is
// predicted taken but falls through, so a wrong path holding a store, a
// load, register writes and a TRAP enters the queue and is nullified —
// the store never reaches memory, no wrong-path register is updated, the
// trap never fires, the NI/LI counters unwind (SelfCheck, every cycle)
// so the correct path reads the right instance, and the store's load
// register is released (with only one, the correct-path load needs it).
func TestWrongPathMemoryOpsSquashed(t *testing.T) {
	src := `
.word poison 0
.word data 7
    lai   A1, 99
    lsi   S3, 1
    frecip S4, S3          ; slow: the branch waits for it
    frecip S6, S3
    frecip S6, S6          ; slower: holds every younger commit past the squash
    lai   A3, 1            ; the surviving A3 instance, uncommitted at the squash
    subs  S5, S4, S4       ; 0, once the reciprocal arrives
    movas A0, S5           ; A0 = 0: janz falls through, but is predicted taken
    janz  wrong
    jmp   done
wrong:
    sta   A1, =poison(A7)  ; wrong-path store: must never commit
    lda   A2, =data(A7)    ; wrong-path load
    lai   A3, 5            ; wrong-path instances of A3
    lai   A3, 6
    trap                   ; wrong-path trap: must be nullified
    halt
done:
    lda   A4, =data(A7)
    adda  A5, A3, A4       ; reads the surviving A3 instance
    halt
`
	unit := asm.MustAssemble(src)
	for _, b := range bypasses {
		m, e := newMachine(t, tagunit.Config{Stations: tagunit.Queue(16), Bypass: b}, machine.Config{Speculate: true, LoadRegs: 1})
		m.SetHandler(func(_ *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
			t.Errorf("%v: wrong-path trap fired: %v", b, ev.Trap)
			return machine.InterruptAction{}
		})
		st := exec.NewState(unit.NewMemory())
		res, err := m.Run(unit.Prog, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("%v: trap escaped the squash: %v", b, res.Trap)
		}
		if st.Mem.Peek(unit.Symbols["poison"]) != 0 {
			t.Fatalf("%v: wrong-path store reached memory", b)
		}
		if st.A[2] != 0 || st.A[3] != 1 || st.A[5] != 8 {
			t.Fatalf("%v: A2 = %d, A3 = %d, A5 = %d; want 0, 1, 8", b, st.A[2], st.A[3], st.A[5])
		}
		if res.Stats.Mispredicts != 1 {
			t.Fatalf("%v: mispredicts = %d, want 1", b, res.Stats.Mispredicts)
		}
		if p := m.Config().Probe.(*selfChecker); p.squashes < 5 {
			t.Fatalf("%v: %d wrong-path instructions squashed, want the whole path", b, p.squashes)
		}
		if err := e.SelfCheck(); err != nil || !e.Drained() {
			t.Fatalf("%v: queue not drained cleanly: %v", b, err)
		}
	}
}

// TestWrongPathTrapNeverFires: a TRAP alone on a mispredicted path is
// nullified with the path; the handler is never called and the correct
// path completes.
func TestWrongPathTrapNeverFires(t *testing.T) {
	src := `
    lai   A0, 1
    addai A0, A0, -1   ; A0 = 0: janz falls through, but is predicted taken
    janz  wrong
    jmp   done
wrong:
    trap               ; wrong path: must be nullified
    halt
done:
    lai   A2, 5
    halt
`
	unit := asm.MustAssemble(src)
	m, _ := newMachine(t, tagunit.Config{Stations: tagunit.Queue(12)}, machine.Config{Speculate: true})
	m.SetHandler(func(_ *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
		t.Errorf("wrong-path trap fired: %v", ev.Trap)
		return machine.InterruptAction{}
	})
	st := exec.NewState(unit.NewMemory())
	res, err := m.Run(unit.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("trap escaped the squash: %v", res.Trap)
	}
	if st.A[2] != 5 {
		t.Fatalf("A2 = %d", st.A[2])
	}
	if res.Stats.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", res.Stats.Mispredicts)
	}
}
