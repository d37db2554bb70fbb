package issue_test

import (
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue"
	"ruu/internal/issue/reorder"
	"ruu/internal/issue/simple"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
)

func runEngine(t *testing.T, eng issue.Engine, src string) (machine.Result, *exec.State) {
	t.Helper()
	unit, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(eng, machine.Config{})
	st := exec.NewState(unit.NewMemory())
	res, err := m.Run(unit.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

func allEngines() map[string]func() issue.Engine {
	return map[string]func() issue.Engine{
		"simple":   func() issue.Engine { return simple.New() },
		"tomasulo": func() issue.Engine { return tagunit.New(tagunit.Config{}) },
		"tu-dist":  func() issue.Engine { return tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: tagunit.PerUnit(2)}) },
		"tu-pool":  func() issue.Engine { return tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: tagunit.Pool(8)}) },
		"rstu":     func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.Pool(8)}) },
		"rstu-2p":  func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.Pool(8), Paths: 2}) },
	}
}

// TestWAWLatestCopyWins is the "latest copy" rule of the Tag Unit
// (Figure 3): when an older, slower producer of a register finishes
// after a newer, faster one, the register must end up with the newer
// value.
func TestWAWLatestCopyWins(t *testing.T) {
	src := `
    lsi   S2, 42
    frecip S1, S2     ; old instance of S1 (latency 14)
    lsi   S1, 7       ; new instance of S1 (latency 1): the latest copy
    adds  S3, S1, S1  ; reads the latest instance
    halt
`
	for name, mk := range allEngines() {
		t.Run(name, func(t *testing.T) {
			_, st := runEngine(t, mk(), src)
			if st.S[1] != 7 {
				t.Errorf("S1 = %d, want the latest copy 7", st.S[1])
			}
			if st.S[3] != 14 {
				t.Errorf("S3 = %d, want 14", st.S[3])
			}
		})
	}
}

// TestOutOfOrderOverlap: on simple issue, an instruction that depends on
// a slow producer blocks the decode stage, so the independent work
// behind it waits too ("subsequent instructions cannot proceed even
// though they may be ready to execute"); with reservation stations the
// waiting instruction steps aside. Every OoO engine must finish this
// pattern strictly faster than simple issue.
func TestOutOfOrderOverlap(t *testing.T) {
	src := `
    lsi    S2, 42
    frecip S1, S2     ; chain A: slow producer (latency 14)
    fadd   S3, S1, S1 ; blocks the decode stage on simple issue
    frecip S4, S2     ; chain B: independent, equally slow — OoO engines
    fadd   S5, S4, S4 ; start it 12+ cycles earlier than simple issue
    halt
`
	resSimple, _ := runEngine(t, simple.New(), src)
	for name, mk := range allEngines() {
		if name == "simple" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			res, _ := runEngine(t, mk(), src)
			if res.Stats.Cycles >= resSimple.Stats.Cycles {
				t.Errorf("%s (%d cycles) not faster than simple (%d)", name, res.Stats.Cycles, resSimple.Stats.Cycles)
			}
		})
	}
}

// TestSimpleEngineExactStall: the simple engine blocks in decode on a
// busy source register for the producer's full latency.
func TestSimpleEngineExactStall(t *testing.T) {
	// Independent pair (no stall):
	free, _ := runEngine(t, simple.New(), `
    lsi  S1, 1
    lsi  S2, 2
    halt
`)
	// Dependent pair through the FP multiplier (latency 7):
	dep, _ := runEngine(t, simple.New(), `
    fmul S1, S2, S3
    fadd S4, S1, S1
    halt
`)
	delta := dep.Stats.Cycles - free.Stats.Cycles
	// fmul latency 7 vs lsi latency 1; the dependent fadd waits ~6 extra
	// cycles, plus the fadd-vs-lsi writeback difference.
	if delta < 6 {
		t.Fatalf("dependency stall only %d cycles", delta)
	}
	if dep.Stats.Stalls[issue.StallOperand] == 0 {
		t.Fatal("no operand stalls recorded")
	}
}

// TestSimpleEngineWAWStall: the simple engine blocks on a busy
// destination register.
func TestSimpleEngineWAWStall(t *testing.T) {
	res, st := runEngine(t, simple.New(), `
    lsi    S2, 42
    frecip S1, S2
    lsi    S1, 7
    halt
`)
	if st.S[1] != 7 {
		t.Fatalf("S1 = %d", st.S[1])
	}
	if res.Stats.Stalls[issue.StallDest] == 0 {
		t.Fatal("no dest-busy stalls recorded")
	}
}

// TestTagUnitBlocksWhenFull reproduces the TU-full condition of §3.2.1:
// with a 2-entry Tag Unit, a third outstanding destination blocks issue.
func TestTagUnitBlocksWhenFull(t *testing.T) {
	eng := tagunit.New(tagunit.Config{TagUnitSize: 2, Stations: tagunit.Pool(8)})
	res, st := runEngine(t, eng, `
    lsi    S6, 42
    frecip S1, S6
    frecip S2, S6
    frecip S3, S6
    frecip S4, S6
    halt
`)
	if res.Stats.Stalls[issue.StallDest] == 0 {
		t.Fatal("TU never filled")
	}
	want := exec.Bits(1.0 / exec.F64(42))
	for i := 1; i <= 4; i++ {
		if st.S[i] != want {
			t.Fatalf("S%d = %#x, want %#x", i, st.S[i], want)
		}
	}
}

// TestDistributedStationsStarve: with one station per unit, two
// consecutive FP adds stall on the station while the (idle) multiplier's
// station cannot help — the §3.2.2 motivation for the merged pool.
func TestDistributedStationsStarve(t *testing.T) {
	dist := tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: tagunit.PerUnit(1)})
	pool := tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: tagunit.Pool(10)})
	src := `
    frecip S6, S7     ; slow producer: the fadds wait in their stations
    fadd S1, S6, S6
    fadd S2, S6, S6
    fadd S3, S6, S6
    fadd S4, S6, S6
    halt
`
	resDist, _ := runEngine(t, dist, src)
	resPool, _ := runEngine(t, pool, src)
	if resDist.Stats.Stalls[issue.StallEntry] == 0 {
		t.Fatal("distributed single stations never starved")
	}
	if resPool.Stats.Cycles > resDist.Stats.Cycles {
		t.Fatalf("pool (%d) slower than starved distributed (%d)", resPool.Stats.Cycles, resDist.Stats.Cycles)
	}
}

// TestRSTUTwoPathsDispatchesTwo: with two dispatch paths, two ready
// instructions (with different latencies, hence different bus slots)
// leave the RSTU in one cycle; the run gets no slower and the engine
// drains.
func TestRSTUTwoPathsDispatchesTwo(t *testing.T) {
	src := `
    lsi  S6, 3
    fadd S1, S6, S6
    fmul S2, S6, S6
    fadd S3, S6, S6
    fmul S4, S6, S6
    halt
`
	r1, _ := runEngine(t, tagunit.New(tagunit.Config{Stations: tagunit.Pool(8)}), src)
	r2, _ := runEngine(t, tagunit.New(tagunit.Config{Stations: tagunit.Pool(8), Paths: 2}), src)
	if r2.Stats.Cycles > r1.Stats.Cycles {
		t.Fatalf("2 paths (%d cycles) slower than 1 (%d)", r2.Stats.Cycles, r1.Stats.Cycles)
	}
}

// TestEngineNames pins the reporting names.
func TestEngineNames(t *testing.T) {
	cases := map[string]issue.Engine{
		"simple":   simple.New(),
		"tomasulo": tagunit.New(tagunit.Config{Stations: tagunit.PerUnit(2)}),
		"tu-dist":  tagunit.New(tagunit.Config{TagUnitSize: 4}),
		"tu-pool":  tagunit.New(tagunit.Config{TagUnitSize: 4, Stations: tagunit.Pool(4)}),
		"rstu":     tagunit.New(tagunit.Config{Stations: tagunit.Pool(4)}),
		"rstu-2p":  tagunit.New(tagunit.Config{Stations: tagunit.Pool(4), Paths: 2}),
	}
	for want, eng := range cases {
		if got := eng.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestStallReasonStrings covers the stall taxonomy.
func TestStallReasonStrings(t *testing.T) {
	want := map[issue.StallReason]string{
		issue.StallNone: "none", issue.StallOperand: "operand",
		issue.StallDest: "dest", issue.StallEntry: "entry",
		issue.StallBus: "bus", issue.StallBranch: "branch",
		issue.StallFetch: "fetch", issue.StallLoadReg: "loadreg",
		issue.StallDrain: "drain",
	}
	for r, w := range want {
		if r.String() != w {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), w)
		}
	}
	if issue.StallReason(99).String() != "stall?" {
		t.Error("invalid reason string")
	}
}

// TestMemTrapInjector: the shared helper consults the injector before
// the mapping check.
func TestMemTrapInjector(t *testing.T) {
	ctx := &issue.Context{State: exec.NewState(nil)}
	if tr := issue.MemTrap(ctx, 1, 5); tr != nil {
		t.Fatalf("unexpected trap %v", tr)
	}
	if tr := issue.MemTrap(ctx, 1, -1); tr == nil || tr.Kind != exec.TrapBadAddress {
		t.Fatalf("bad address trap = %v", tr)
	}
	ctx.State.Mem.Unmap(0)
	if tr := issue.MemTrap(ctx, 1, 5); tr == nil || tr.Kind != exec.TrapPageFault {
		t.Fatalf("page fault trap = %v", tr)
	}
	ctx.Inject = func(pc int, addr int64) *exec.Trap {
		return &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
	}
	if tr := issue.MemTrap(ctx, 2, 5); tr == nil || tr.Kind != exec.TrapExplicit {
		t.Fatalf("injector not consulted first: %v", tr)
	}
}

// TestStoreBeforeLoadSameAddressAllEngines: the load-register chain
// yields correct same-address ordering everywhere.
func TestStoreBeforeLoadSameAddressAllEngines(t *testing.T) {
	src := `
.word slot 5
    lai  A1, 9
    sta  A1, =slot(A7)
    lda  A2, =slot(A7)
    lai  A3, 11
    sta  A3, =slot(A7)
    lda  A4, =slot(A7)
    halt
`
	for name, mk := range allEngines() {
		t.Run(name, func(t *testing.T) {
			_, st := runEngine(t, mk(), src)
			if st.A[2] != 9 || st.A[4] != 11 {
				t.Errorf("A2=%d A4=%d, want 9/11", st.A[2], st.A[4])
			}
		})
	}
}

// TestSameAddressStoresKeepProgramOrder: an older store whose data is
// still in flight and a younger store to the same address whose data is
// ready. Engines that write memory at execution must still leave the
// younger value in memory: the younger store waits on the load-register
// chain until the older one has written.
func TestSameAddressStoresKeepProgramOrder(t *testing.T) {
	src := `
.word z 0
    lai    A7, 0
    lsi    S2, 42
    frecip S1, S2
    sts    S1, =z(A7)
    lsi    S3, 7
    sts    S3, =z(A7)
    halt
`
	engines := allEngines()
	engines["reorder"] = func() issue.Engine { return reorder.New(reorder.ModePlain, 8) }
	engines["ruu"] = func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.Queue(8)}) }
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			unit, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			_, st := runEngine(t, mk(), src)
			if got := st.Mem.Peek(unit.Symbols["z"]); got != 7 {
				t.Errorf("z = %d, want 7 from the younger store", got)
			}
		})
	}
}
