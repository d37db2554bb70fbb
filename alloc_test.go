package ruu_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"ruu"
	"ruu/internal/asm"
	"ruu/internal/bench"
	"ruu/internal/dfa"
	"ruu/internal/exec"
	"ruu/internal/livermore"
	"ruu/internal/machine"
	"ruu/internal/memsys"
)

// allocLoop is a counted loop with a load and a store per iteration, so
// a run exercises the issue engine, the functional units, the result
// bus, and the load registers every cycle.
func allocLoop(n int) string {
	return fmt.Sprintf(`
.equ   n %d
.array x 8

    lai   A7, 0
    lai   A0, =n         ; loop countdown (A0 is the branch register)
    lsi   S1, 1
loop:
    lds   S2, =x(A7)
    adds  S2, S2, S1
    sts   S2, =x(A7)
    addai A0, A0, -1
    janz  loop
    halt
`, n)
}

// alternatingLoop is allocLoop with a branch whose direction flips
// every iteration (S0 alternates 1, 0, 1, …), so a speculating machine
// mispredicts — and squashes — a number of times that grows with n.
func alternatingLoop(n int) string {
	return fmt.Sprintf(`
.equ   n %d
.array x 8

    lai   A7, 0
    lai   A0, =n
    lsi   S1, 1
    lsi   S0, 0
loop:
    xors  S0, S0, S1
    jsz   skip
    lds   S2, =x(A7)
    adds  S2, S2, S1
    sts   S2, =x(A7)
skip:
    addai A0, A0, -1
    janz  loop
    halt
`, n)
}

// TestCycleZeroAllocs proves the claim behind the hotpathalloc pass
// (internal/analysis): with the nil probe, a simulated machine cycle
// allocates nothing. Allocation per cycle is measured as a delta — a
// short and a long run of the same loop share identical setup (machine
// construction, state image, warm-up growth of the engines' reusable
// buffers) and differ only in steady-state cycles executed, so any
// per-cycle allocation would separate their testing.AllocsPerRun
// counts by hundreds.
func TestCycleZeroAllocs(t *testing.T) {
	const shortN, longN = 8, 512
	// The process's first garbage collection starts the runtime's
	// background mark workers, which allocate; run it now so it cannot
	// land inside one of the measurements below.
	runtime.GC()
	type allocCase struct {
		name string
		cfg  ruu.Config
		prog func(int) string
	}
	var cases []allocCase
	for _, eng := range []ruu.EngineKind{
		ruu.EngineSimple, ruu.EngineTomasulo, ruu.EngineTagUnit,
		ruu.EngineRSPool, ruu.EngineRSTU, ruu.EngineRUU,
		ruu.EngineReorder, ruu.EngineReorderBypass, ruu.EngineReorderFuture,
	} {
		cases = append(cases, allocCase{string(eng), ruu.Config{Engine: eng}, allocLoop})
	}
	spec := ruu.Config{Engine: ruu.EngineRUU}
	spec.Machine.Speculate = true
	cases = append(cases,
		allocCase{"ruu-none", ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassNone}, allocLoop},
		allocCase{"ruu-limited", ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassLimited}, allocLoop},
		allocCase{"ruu-spec-mispredicting", spec, alternatingLoop},
	)
	// The paper's largest windows: every waiter list, ready list, free
	// list and flight-ring slot is sized at Reset, so size adds no
	// per-cycle allocation.
	for _, b := range []ruu.BypassKind{ruu.BypassFull, ruu.BypassNone, ruu.BypassLimited} {
		cases = append(cases, allocCase{"ruu-50-" + string(b), ruu.Config{Engine: ruu.EngineRUU, Entries: 50, Bypass: b}, allocLoop})
	}
	spec50 := ruu.Config{Engine: ruu.EngineRUU, Entries: 50}
	spec50.Machine.Speculate = true
	cases = append(cases,
		allocCase{"ruu-50-spec-mispredicting", spec50, alternatingLoop},
		allocCase{"rstu-50-2p", ruu.Config{Engine: ruu.EngineRSTU, Entries: 50, Paths: 2}, allocLoop},
		allocCase{"tomasulo-5", ruu.Config{Engine: ruu.EngineTomasulo, Entries: 5}, allocLoop},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(n int) (allocs float64, res ruu.Result) {
				u, err := ruu.Assemble(tc.prog(n))
				if err != nil {
					t.Fatal(err)
				}
				run := func() ruu.Result {
					m, err := ruu.NewMachine(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.Run(u.Prog, ruu.NewState(u))
					if err != nil || res.Trap != nil {
						t.Fatalf("run failed: %v trap=%v", err, res.Trap)
					}
					return res
				}
				res = run()
				return testing.AllocsPerRun(5, func() { run() }), res
			}
			shortAllocs, short := measure(shortN)
			longAllocs, long := measure(longN)
			shortCycles, longCycles := short.Stats.Cycles, long.Stats.Cycles
			if longCycles < shortCycles+500 {
				t.Fatalf("loop sizing broken: short=%d long=%d cycles", shortCycles, longCycles)
			}
			if tc.cfg.Machine.Speculate && long.Stats.Mispredicts < short.Stats.Mispredicts+100 {
				t.Fatalf("mispredicts do not grow: short=%d long=%d", short.Stats.Mispredicts, long.Stats.Mispredicts)
			}
			if delta := longAllocs - shortAllocs; delta > 0.5 {
				perCycle := delta / float64(longCycles-shortCycles)
				t.Errorf("per-cycle allocation: %d extra cycles cost %.1f extra allocs (%.4f/cycle); want 0",
					longCycles-shortCycles, delta, perCycle)
			}
		})
	}
}

// pageLoop stores into page 0 and into a second address on each of n
// iterations; the second address starts at start and moves by stride.
func pageLoop(n, start, stride int) string {
	return fmt.Sprintf(`
.equ   n %d
.equ   start %d

    lai   A7, 0
    lai   A1, =start
    lai   A0, =n
    lsi   S1, 1
loop:
    sts   S1, 0(A7)
    sts   S1, 0(A1)
    addai A1, A1, %d
    addai A0, A0, -1
    janz  loop
    halt
`, n, start, stride)
}

// TestPageCopyAllocs pins the bound behind copyPage's place among
// hotpathalloc's cold functions (internal/analysis): a run's memory
// shares its pages with the unit's initial image, and the first store
// to a page copies it, so a store allocates at most once per page per
// run. A loop that also stores into k distinct fresh pages allocates
// exactly k more than the same loop storing into the one page it
// already writes.
func TestPageCopyAllocs(t *testing.T) {
	runtime.GC()
	for _, eng := range []ruu.EngineKind{ruu.EngineSimple, ruu.EngineRSTU, ruu.EngineRUU, ruu.EngineReorder} {
		for _, k := range []int{1, 4, 16} {
			allocs := func(start, stride int) float64 {
				u, err := ruu.Assemble(pageLoop(k, start, stride))
				if err != nil {
					t.Fatal(err)
				}
				run := func() {
					m, err := ruu.NewMachine(ruu.Config{Engine: eng})
					if err != nil {
						t.Fatal(err)
					}
					if res, err := m.Run(u.Prog, ruu.NewState(u)); err != nil || res.Trap != nil {
						t.Fatalf("run failed: %v trap=%v", err, res.Trap)
					}
				}
				run()
				return testing.AllocsPerRun(5, run)
			}
			onePage, kPages := allocs(1, 1), allocs(memsys.PageWords, memsys.PageWords)
			if extra := kPages - onePage; extra != float64(k) {
				t.Errorf("%s, %d pages: %v allocs, one page %v: %v extra, want %d", eng, k, kPages, onePage, extra, k)
			}
		}
	}
}

// TestVerifiedRunProgramAllocs bounds what a verified RunProgram
// allocates once the unit's functional reference is computed: the
// run's own state and machine, not a second and third memory image for
// the reference.
func TestVerifiedRunProgramAllocs(t *testing.T) {
	const limitKB, runs = 64, 10
	u, err := livermore.ByName("LLL1").Unit()
	if err != nil {
		t.Fatal(err)
	}
	var r *ruu.Runner
	cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 12}
	run := func() {
		out, err := r.RunProgram(context.Background(), cfg, u, true)
		if err != nil || !out.Verified {
			t.Fatalf("RunProgram: verified=%v err=%v", out.Verified, err)
		}
	}
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; kb >= limitKB {
		t.Errorf("verified RunProgram allocates %.0f KB per run, want under %d KB", kb, limitKB)
	} else {
		t.Logf("verified RunProgram allocates %.0f KB per run", kb)
	}
}

// TestAnalyzeAllocsFollowProgram bounds what the static pre-screen
// allocates for a short generated program, the kind synth-cold sends
// to /v1/analyze: assembly, dfa.Analyze, the state and InterpretState,
// Lint, MemDeps, and the one replay that yields the census and both
// dataflow bounds. The total must stay within a small multiple of the
// source's length. Storage sized by the machine rather than the program
// breaks the bound at once: a full 144-register pre-state is 3,456
// bytes for an instruction whose source line is a few dozen, and a
// dependence table over the whole memory image is 256 KiB.
func TestAnalyzeAllocsFollowProgram(t *testing.T) {
	const perSourceByte, runs = 64, 5
	mc := machine.DefaultConfig()
	bcfg := dfa.BoundConfig{Lat: mc.Lat, FwdLatency: mc.FwdLatency}
	for i, body := range bench.AnalyzeCorpus(7, 12) {
		var req struct{ Asm string }
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		analyze := func() {
			u, err := asm.Assemble(req.Asm)
			if err != nil {
				t.Fatal(err)
			}
			st := exec.NewState(u.NewMemory())
			ai := dfa.Analyze(u.Prog).InterpretState(st)
			ai.Lint()
			ai.MemDeps()
			if _, err := dfa.Replay(u.Prog, st, bcfg); err != nil {
				t.Fatal(err)
			}
		}
		analyze()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			analyze()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := float64(perSourceByte * len(req.Asm)); perRun > limit {
			t.Errorf("program %d (%d source bytes): analysis allocates %.0f B, want at most %.0f", i, len(req.Asm), perRun, limit)
		} else {
			t.Logf("program %d (%d source bytes): %.0f B, %.1f per source byte", i, len(req.Asm), perRun, perRun/float64(len(req.Asm)))
		}
	}
}
