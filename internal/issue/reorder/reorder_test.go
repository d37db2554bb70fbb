package reorder_test

import (
	"strings"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue"
	"ruu/internal/issue/reorder"
	"ruu/internal/machine"
)

func run(t *testing.T, mode reorder.Mode, size int, src string) (machine.Result, *exec.State, *reorder.Engine) {
	t.Helper()
	unit, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	e := reorder.New(mode, size)
	m := machine.New(e, machine.Config{})
	st := exec.NewState(unit.NewMemory())
	res, err := m.Run(unit.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	return res, st, e
}

func TestNamesAndDefaults(t *testing.T) {
	if reorder.New(reorder.ModePlain, 0).Name() != "reorder-plain" {
		t.Error("plain name")
	}
	if reorder.New(reorder.ModeBypass, 4).Name() != "reorder-bypass" {
		t.Error("bypass name")
	}
	if reorder.New(reorder.ModeFuture, 4).Name() != "reorder-future" {
		t.Error("future name")
	}
	// The default buffer holds 12 entries: a slow head plus 11 more
	// issue without waiting for an entry, a 13th waits.
	fill := func(n int) string {
		return "    frecip S1, S2\n" + strings.Repeat("    lai A1, 1\n", n-1) + "    halt\n"
	}
	if res, _, _ := run(t, reorder.ModePlain, 0, fill(12)); res.Stats.Stalls[issue.StallEntry] != 0 {
		t.Error("default size below 12")
	}
	if res, _, _ := run(t, reorder.ModePlain, 0, fill(13)); res.Stats.Stalls[issue.StallEntry] == 0 {
		t.Error("default size above 12")
	}
	if reorder.Mode(9).String() != "mode?" {
		t.Error("invalid mode string")
	}
}

// TestPlainAggravatesDependencies is the §4 claim: a consumer of a
// fast result stuck behind a slow instruction waits for COMMIT in the
// plain organisation, but only for completion with bypass or a future
// file.
func TestPlainAggravatesDependencies(t *testing.T) {
	src := `
    frecip S1, S2     ; slow (latency 14): delays every younger commit
    lsi    S3, 21     ; fast: completes at once, commits late
    adds   S4, S3, S3 ; consumer of the fast result
    halt
`
	rp, sp, _ := run(t, reorder.ModePlain, 8, src)
	rb, sb, _ := run(t, reorder.ModeBypass, 8, src)
	rf, sf, _ := run(t, reorder.ModeFuture, 8, src)
	for _, st := range []*exec.State{sp, sb, sf} {
		if st.S[4] != 42 {
			t.Fatalf("S4 = %d, want 42", st.S[4])
		}
	}
	if rp.Stats.Cycles <= rb.Stats.Cycles {
		t.Errorf("plain (%d cycles) not slower than bypass (%d)", rp.Stats.Cycles, rb.Stats.Cycles)
	}
	if rb.Stats.Cycles != rf.Stats.Cycles {
		t.Errorf("future file (%d) != bypass (%d); [5] says they perform identically",
			rf.Stats.Cycles, rb.Stats.Cycles)
	}
	if rp.Stats.Stalls[issue.StallOperand] == 0 {
		t.Error("plain mode recorded no aggravated-dependency stalls")
	}
}

// TestStoreToLoadThroughROB: an uncommitted store must be visible to a
// younger load (the buffer is searched newest-first).
func TestStoreToLoadThroughROB(t *testing.T) {
	src := `
.word slot 5
    frecip S1, S2        ; keeps the stores uncommitted
    lai  A1, 9
    sta  A1, =slot(A7)
    lai  A2, 11
    sta  A2, =slot(A7)   ; newest store wins
    lda  A3, =slot(A7)
    halt
`
	for _, mode := range []reorder.Mode{reorder.ModePlain, reorder.ModeBypass, reorder.ModeFuture} {
		_, st, _ := run(t, mode, 10, src)
		if st.A[3] != 11 {
			t.Errorf("%v: A3 = %d, want 11 (newest uncommitted store)", mode, st.A[3])
		}
		if st.Mem.Peek(4096) != 11 {
			t.Errorf("%v: memory = %d after commit", mode, st.Mem.Peek(4096))
		}
	}
}

// TestPreciseTrapBoundary: the reorder buffer's whole purpose — at a
// trap, everything older committed, nothing younger visible.
func TestPreciseTrapBoundary(t *testing.T) {
	for _, mode := range []reorder.Mode{reorder.ModePlain, reorder.ModeBypass, reorder.ModeFuture} {
		unit, err := asm.Assemble(`
    frecip S1, S2
    lai   A1, 7
    trap
    lai   A2, 9
    halt
`)
		if err != nil {
			t.Fatal(err)
		}
		e := reorder.New(mode, 8)
		if !e.Precise() {
			t.Fatalf("%v: not precise", mode)
		}
		m := machine.New(e, machine.Config{})
		m.SetHandler(func(st *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
			if st.A[1] != 7 {
				t.Errorf("%v: older A1 not committed at trap", mode)
			}
			if st.A[2] != 0 {
				t.Errorf("%v: younger A2 visible at trap", mode)
			}
			return machine.InterruptAction{Resume: true, ResumePC: ev.Trap.PC + 1}
		})
		st := exec.NewState(unit.NewMemory())
		res, err := m.Run(unit.Prog, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil || st.A[2] != 9 {
			t.Fatalf("%v: resume failed: trap=%v A2=%d", mode, res.Trap, st.A[2])
		}
	}
}

// TestBufferFullBlocksIssue: a tiny buffer records entry stalls.
func TestBufferFullBlocksIssue(t *testing.T) {
	res, _, e := run(t, reorder.ModeBypass, 2, `
    frecip S1, S2
    lsi  S3, 1
    lsi  S4, 2
    lsi  S5, 3
    halt
`)
	if res.Stats.Stalls[issue.StallEntry] == 0 {
		t.Fatal("no entry stalls on a 2-entry buffer")
	}
	if !e.Drained() || e.InFlight() != 0 {
		t.Fatal("buffer not drained")
	}
}

// TestBranchWaitsForCommitInPlainMode: the condition register of a
// branch follows the same read rules, so plain mode blocks branches
// longer.
func TestBranchWaitsForCommitInPlainMode(t *testing.T) {
	src := `
    frecip S1, S2     ; slow, delays commits
    lai   A0, 1       ; fast branch condition
    janz  out
    nop
out:
    halt
`
	rp, _, _ := run(t, reorder.ModePlain, 8, src)
	rb, _, _ := run(t, reorder.ModeBypass, 8, src)
	if rp.Stats.Cycles <= rb.Stats.Cycles {
		t.Errorf("plain branch wait (%d) not longer than bypass (%d)", rp.Stats.Cycles, rb.Stats.Cycles)
	}
}
