package tagunit_test

import (
	"fmt"
	"strings"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
	"ruu/internal/obs"
)

// machines are the paper's reservation-station machines as
// configurations of the one engine, keyed by their reporting names.
var machines = map[string]tagunit.Config{
	"tomasulo":    {Stations: tagunit.PerUnit(3)},
	"tu-dist":     {Stations: tagunit.PerUnit(3), TagUnitSize: 12},
	"tu-pool":     {Stations: tagunit.Pool(8), TagUnitSize: 12},
	"rstu":        {Stations: tagunit.Pool(8)},
	"rstu-2p":     {Stations: tagunit.Pool(8), Paths: 2},
	"ruu-full":    {Stations: tagunit.Queue(8)},
	"ruu-none":    {Stations: tagunit.Queue(8), Bypass: tagunit.BypassNone},
	"ruu-limited": {Stations: tagunit.Queue(8), Bypass: tagunit.BypassLimited},
}

var bypasses = []tagunit.Bypass{tagunit.BypassFull, tagunit.BypassNone, tagunit.BypassLimited}

// selfChecker is a probe that validates the engine's invariants at the
// end of every cycle, and counts squashed instructions.
type selfChecker struct {
	t                 *testing.T
	e                 *tagunit.Engine
	samples, squashes int
	failed            bool
}

func (p *selfChecker) Event(ev obs.Event) {
	if ev.Kind == obs.KindSquash {
		p.squashes++
	}
}

func (p *selfChecker) Sample(s obs.Sample) {
	p.samples++
	if err := p.e.SelfCheck(); err != nil && !p.failed {
		p.failed = true
		p.t.Errorf("cycle %d: %v", s.Cycle, err)
	}
}

// newMachine builds a machine around a fresh engine, with the
// self-checking probe attached.
func newMachine(t *testing.T, cfg tagunit.Config, mcfg machine.Config) (*machine.Machine, *tagunit.Engine) {
	t.Helper()
	e := tagunit.New(cfg)
	mcfg.Probe = &selfChecker{t: t, e: e}
	return machine.New(e, mcfg), e
}

// run assembles and runs src, checking the engine every cycle and once
// more after the run.
func run(t *testing.T, cfg tagunit.Config, mcfg machine.Config, src string) (machine.Result, *exec.State, *tagunit.Engine) {
	t.Helper()
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, e := newMachine(t, cfg, mcfg)
	st := exec.NewState(u.NewMemory())
	res, err := m.Run(u.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	return res, st, e
}

func resumeAfterTrap(_ *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
	return machine.InterruptAction{Resume: true, ResumePC: ev.Trap.PC + 1}
}

func TestIdentityAndModes(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			e := tagunit.New(cfg)
			if e.Name() != name {
				t.Errorf("Name() = %q", e.Name())
			}
			if want := strings.HasPrefix(name, "ruu"); e.Precise() != want {
				t.Errorf("Precise() = %v, want %v: only the queue is precise", e.Precise(), want)
			}
			_, isSpec := issue.Engine(e).(issue.Speculator)
			if !isSpec {
				t.Error("the engine does not implement issue.Speculator")
			}
		})
	}
}

func TestBypassStrings(t *testing.T) {
	if tagunit.BypassFull.String() != "full" || tagunit.BypassNone.String() != "none" ||
		tagunit.BypassLimited.String() != "limited" || tagunit.Bypass(9).String() != "bypass?" {
		t.Fatal("Bypass strings wrong")
	}
}

// TestStationCapacity: with stations held until broadcast (or, in the
// queue, until commit), n independent slow instructions of one unit
// class issue without waiting for a station and the (n+1)th waits. This
// pins the station counts, including the defaults.
func TestStationCapacity(t *testing.T) {
	cases := []struct {
		name     string
		cfg      tagunit.Config
		stations int
	}{
		{"tomasulo-default", tagunit.Config{}, tagunit.DefaultPerUnit},
		{"tomasulo-2", tagunit.Config{Stations: tagunit.PerUnit(2)}, 2},
		{"rstu-5", tagunit.Config{Stations: tagunit.Pool(5)}, 5},
		{"rstu-default", tagunit.Config{Stations: tagunit.Pool(0)}, tagunit.DefaultPoolSize},
		{"ruu-3", tagunit.Config{Stations: tagunit.Queue(3)}, 3},
		{"ruu-default", tagunit.Config{Stations: tagunit.Queue(0)}, isa.PaperDefaultRUUEntries},
	}
	recips := func(n int) string {
		// Spread the destinations so the queue's instance counters
		// never block issue first.
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "    frecip S%d, S7\n", i%6+1)
		}
		return b.String() + "    halt\n"
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res, _, _ := run(t, tc.cfg, machine.Config{}, recips(tc.stations)); res.Stats.Stalls[issue.StallEntry] != 0 {
				t.Errorf("%d instructions waited for a station", tc.stations)
			}
			if res, _, _ := run(t, tc.cfg, machine.Config{}, recips(tc.stations+1)); res.Stats.Stalls[issue.StallEntry] == 0 {
				t.Errorf("%d instructions never waited for a station", tc.stations+1)
			}
		})
	}
}

// TestNICounterBlocksIssue: with n-bit NI/LI counters up to 2^n − 1
// instances of a register may be in flight (the paper: "a 3-bit counter
// ensured that ... an instruction never blocked ... because an instance
// of a register was unavailable"); one more blocks issue. A chain of
// reciprocals at the head keeps every instance from committing.
func TestNICounterBlocksIssue(t *testing.T) {
	cases := []struct {
		name            string
		bits, instances int
	}{
		{"1-bit", 1, 1},
		{"2-bit", 2, 3},
		{"default", 0, 7}, // isa.PaperCounterBits
		{"clamped", 99, 255},
	}
	prog := func(writes int) string {
		var b strings.Builder
		for i := 0; i <= writes/10; i++ {
			fmt.Fprintf(&b, "    frecip S%d, S%d\n", i%6+1, (i+5)%6+1)
		}
		for i := 0; i < writes; i++ {
			fmt.Fprintf(&b, "    lai A1, %d\n", i+1)
		}
		b.WriteString("    halt\n")
		return b.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tagunit.Config{Stations: tagunit.Queue(300), CounterBits: tc.bits}
			res, st, _ := run(t, cfg, machine.Config{}, prog(tc.instances))
			if res.Stats.Stalls[issue.StallDest] != 0 {
				t.Errorf("%d instances blocked issue", tc.instances)
			}
			if st.A[1] != int64(tc.instances) {
				t.Errorf("A1 = %d", st.A[1])
			}
			if res, _, _ := run(t, cfg, machine.Config{}, prog(tc.instances+1)); res.Stats.Stalls[issue.StallDest] == 0 {
				t.Errorf("%d instances never blocked issue", tc.instances+1)
			}
		})
	}
}

// TestEntryHeldUntilRegisterUpdate: the §3.2.3 property — without a
// separate Tag Unit an entry is both tag and station, so it is occupied
// while its instruction transits the functional unit. With 2 stations, a
// third independent instruction stalls even though the first two have
// already dispatched.
func TestEntryHeldUntilRegisterUpdate(t *testing.T) {
	cases := map[string]tagunit.Config{
		"rstu":     {Stations: tagunit.Pool(2)},
		"tomasulo": {Stations: tagunit.PerUnit(2)},
		"ruu":      {Stations: tagunit.Queue(2)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			res, st, _ := run(t, cfg, machine.Config{}, `
    lsi    S6, 42
    frecip S1, S6
    frecip S2, S6
    frecip S3, S6
    halt
`)
			if res.Stats.Stalls[issue.StallEntry] == 0 {
				t.Fatal("entries were recycled before register update")
			}
			want := exec.Bits(1.0 / exec.F64(42))
			if st.S[1] != want || st.S[2] != want || st.S[3] != want {
				t.Fatal("wrong results")
			}
		})
	}
}

// TestStationFreedAtDispatchWithTU: with a separate Tag Unit the station
// is released when the operation enters its unit (the tag travels with
// it), so a 1-station-per-unit configuration still streams independent
// same-unit operations without starving.
func TestStationFreedAtDispatchWithTU(t *testing.T) {
	res, st, _ := run(t, tagunit.Config{TagUnitSize: 12, Stations: tagunit.PerUnit(1)}, machine.Config{}, `
    lsi  S6, 3
    fadd S1, S6, S6
    fadd S2, S6, S6
    fadd S3, S6, S6
    halt
`)
	// Three back-to-back ready fadds through ONE station: each occupies
	// it for one cycle only. If stations were held to completion this
	// would serialize at the fadd latency (6) per instruction.
	if res.Stats.Cycles > 20 {
		t.Fatalf("%d cycles: station apparently held past dispatch", res.Stats.Cycles)
	}
	want := exec.Bits(exec.F64(3) + exec.F64(3))
	if st.S[1] != want || st.S[2] != want || st.S[3] != want {
		t.Fatal("wrong results")
	}
}

// TestPerRegisterTagsUnlimited: Tomasulo mode has no Tag Unit cap; many
// outstanding destinations are limited only by stations.
func TestPerRegisterTagsUnlimited(t *testing.T) {
	_, st, _ := run(t, tagunit.Config{Stations: tagunit.PerUnit(8)}, machine.Config{}, `
    lsi    S6, 42
    frecip S1, S6
    frecip S2, S6
    frecip S3, S6
    frecip S4, S6
    frecip S5, S6
    halt
`)
	want := exec.Bits(1.0 / exec.F64(42))
	for i := 1; i <= 5; i++ {
		if st.S[i] != want {
			t.Fatalf("S%d wrong", i)
		}
	}
}

// TestClassicRenaming: WAW and WAR hazards dissolve through tags — the
// 360/91's contribution, inherited by every machine above it.
func TestClassicRenaming(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			_, st, _ := run(t, cfg, machine.Config{}, `
    lsi    S2, 42
    frecip S1, S2     ; slow producer of S1 (old instance)
    adds   S3, S1, S1 ; WAR: reads the OLD S1 instance... after it arrives
    lsi    S1, 7      ; WAW: new instance issues without waiting
    adds   S4, S1, S1 ; reads the NEW instance
    halt
`)
			// adds is an integer add, so S3 holds twice the reciprocal's
			// raw bit pattern (the OLD S1 instance).
			recipBits := exec.Bits(1.0 / exec.F64(42))
			if st.S[3] != recipBits+recipBits {
				t.Fatalf("S3 = %#x, want %#x (old-instance read broken)", st.S[3], recipBits+recipBits)
			}
			if st.S[4] != 14 {
				t.Fatalf("S4 = %d (new-instance read broken)", st.S[4])
			}
			if st.S[1] != 7 {
				t.Fatalf("S1 = %d (latest copy lost)", st.S[1])
			}
		})
	}
}

// TestOutOfOrderCompletionUpdatesRegistersEarly — the imprecision that
// motivates the RUU: in the pool organisations a younger, faster
// instruction's register update is architecturally visible while an
// older one is still in flight; the queue stops with every older
// instruction committed and nothing younger visible.
func TestOutOfOrderCompletionUpdatesRegistersEarly(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			res, st, _ := run(t, cfg, machine.Config{}, `
    lsi    S6, 42
    frecip S1, S6     ; old, slow
    lai    A1, 7      ; young, fast
    lds    S2, -1(A7) ; faults (address -1)
    lai    A2, 9      ; younger than the fault
    halt
`)
			precise := strings.HasPrefix(name, "ruu")
			if res.Trap == nil || res.Precise != precise {
				t.Fatalf("trap %v precise=%v, want precise=%v", res.Trap, res.Precise, precise)
			}
			if st.A[1] != 7 {
				t.Fatal("the young instruction's update should be visible")
			}
			if recipDone := st.S[1] != 0; recipDone != precise {
				t.Fatalf("old slow instruction complete at the trap = %v, want %v", recipDone, precise)
			}
			if precise && st.A[2] != 0 {
				t.Fatal("an instruction younger than the fault reached the register file")
			}
		})
	}
}

// TestQueueDisciplineAndDrain: after a run the queue is empty (head ==
// tail, every NI counter zero — SelfCheck), for every bypass and queue
// size.
func TestQueueDisciplineAndDrain(t *testing.T) {
	for _, b := range bypasses {
		for _, n := range []int{1, 2, 4, 7} {
			_, st, e := run(t, tagunit.Config{Stations: tagunit.Queue(n), Bypass: b}, machine.Config{}, `
    lai  A1, 2
    lai  A2, 3
    adda A3, A1, A2
    mula A4, A3, A3
    halt
`)
			if !e.Drained() || e.InFlight() != 0 {
				t.Fatalf("%v/%d: queue not drained", b, n)
			}
			if st.A[4] != 25 {
				t.Fatalf("%v/%d: A4 = %d", b, n, st.A[4])
			}
		}
	}
}

// TestCommitInOrder: a fast instruction following a slow one, with a
// trap right after both. At the trap both must have committed, in
// order.
func TestCommitInOrder(t *testing.T) {
	for _, b := range bypasses {
		unit := asm.MustAssemble(`
    lai    A1, 4
    frecip S1, S2     ; slow (latency 14)
    adda   A2, A1, A1 ; fast (latency 2), younger
    trap              ; stops commit right after adda
    halt
`)
		m, _ := newMachine(t, tagunit.Config{Stations: tagunit.Queue(8), Bypass: b}, machine.Config{})
		traps := 0
		m.SetHandler(func(st *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
			traps++
			if st.A[2] != 8 || st.S[1] == 0 {
				t.Errorf("%v: older instructions not committed at the trap: A2=%d S1=%#x", b, st.A[2], st.S[1])
			}
			return resumeAfterTrap(st, ev)
		})
		st := exec.NewState(unit.NewMemory())
		if _, err := m.Run(unit.Prog, st); err != nil {
			t.Fatal(err)
		}
		if traps != 1 {
			t.Fatalf("%v: traps=%d", b, traps)
		}
	}
}

// TestStoreCommitsToMemoryInOrder: a store younger than a trap must not
// be visible in memory at the trap, and reaches memory after the resume.
func TestStoreCommitsToMemoryInOrder(t *testing.T) {
	for _, b := range bypasses {
		unit := asm.MustAssemble(`
.word slot 0
    lai  A1, 7
    trap
    sta  A1, =slot(A7)
    halt
`)
		m, _ := newMachine(t, tagunit.Config{Stations: tagunit.Queue(8), Bypass: b}, machine.Config{})
		slot := unit.Symbols["slot"]
		m.SetHandler(func(st *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
			if st.Mem.Peek(slot) != 0 {
				t.Errorf("%v: younger store visible at the trap", b)
			}
			return resumeAfterTrap(st, ev)
		})
		st := exec.NewState(unit.NewMemory())
		if _, err := m.Run(unit.Prog, st); err != nil {
			t.Fatal(err)
		}
		if st.Mem.Peek(slot) != 7 {
			t.Fatalf("%v: store lost after resume: %d", b, st.Mem.Peek(slot))
		}
	}
}

// TestBypassTiming: a value produced long before it can commit, read by
// a slow consumer. Full bypass reads it out of the queue; without bypass
// the reader waits for the commit bus. The A-register future file
// recovers the same pattern through an A register, but not through an S
// register.
func TestBypassTiming(t *testing.T) {
	cases := []struct {
		name, src string
		check     func(st *exec.State) bool
		// limitedLikeFull: the future file covers the chain.
		limitedLikeFull bool
	}{
		{"S-chain", `
    frecip S3, S4      ; slow older work delays every younger commit
    frecip S5, S6
    lsi  S1, 42        ; producer: completes long before it can commit
    lai  A1, 1         ; independent padding so the reader issues after
    lai  A2, 2         ; the producer has executed
    lai  A3, 3
    frecip S7, S1      ; slow reader: its start time sets the end time
    halt
`, func(st *exec.State) bool { return st.S[7] == exec.Bits(1.0/exec.F64(42)) }, false},
		{"A-chain", `
    frecip S3, S4      ; slow older work delays every younger commit
    frecip S5, S6
    lai  A2, 42        ; producer
    lsi  S1, 1         ; independent padding
    lsi  S2, 2
    lsi  S7, 3
    mula A3, A2, A2    ; slow reader: its start time sets the end time
    halt
`, func(st *exec.State) bool { return st.A[3] == 42*42 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycles := map[tagunit.Bypass]int64{}
			for _, b := range bypasses {
				res, st, _ := run(t, tagunit.Config{Stations: tagunit.Queue(10), Bypass: b}, machine.Config{}, tc.src)
				if !tc.check(st) {
					t.Fatalf("%v: wrong result", b)
				}
				cycles[b] = res.Stats.Cycles
			}
			full, none, lim := cycles[tagunit.BypassFull], cycles[tagunit.BypassNone], cycles[tagunit.BypassLimited]
			if full >= none {
				t.Errorf("full (%d) not faster than none (%d)", full, none)
			}
			if tc.limitedLikeFull && (lim >= none || full > lim) {
				t.Errorf("future file did not help: full=%d limited=%d none=%d", full, lim, none)
			}
			if !tc.limitedLikeFull && lim != none {
				t.Errorf("limited (%d) != none (%d) outside the A registers", lim, none)
			}
		})
	}
}

// TestCommitWidthTwoFasterOnCommitBound: widening the queue-to-register
// path accelerates a commit-bound program.
func TestCommitWidthTwoFasterOnCommitBound(t *testing.T) {
	src := `
    lai  A1, 1
    lai  A2, 2
    lai  A3, 3
    lai  A4, 4
    lai  A5, 5
    lsi  S1, 1
    lsi  S2, 2
    lsi  S3, 3
    halt
`
	r1, _, _ := run(t, tagunit.Config{Stations: tagunit.Queue(16), CommitWidth: 1}, machine.Config{}, src)
	r2, _, _ := run(t, tagunit.Config{Stations: tagunit.Queue(16), CommitWidth: 2}, machine.Config{}, src)
	if r2.Stats.Cycles > r1.Stats.Cycles {
		t.Fatalf("commit width 2 slower: %d vs %d", r2.Stats.Cycles, r1.Stats.Cycles)
	}
}

// TestStoreToLoadForwarding: a load from an address with a pending
// store sees the store's data, on every machine.
func TestStoreToLoadForwarding(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			_, st, _ := run(t, cfg, machine.Config{}, `
.word slot 5
    lai  A1, 9
    sta  A1, =slot(A7)   ; store
    lda  A2, =slot(A7)   ; load must forward 9, not read stale 5
    adda A3, A2, A2
    halt
`)
			if st.A[2] != 9 || st.A[3] != 18 {
				t.Fatalf("forwarding broken: A2=%d A3=%d", st.A[2], st.A[3])
			}
		})
	}
}

// TestLoadRegisterExhaustionStall: with one load register, back-to-back
// loads to distinct addresses serialize but complete correctly.
func TestLoadRegisterExhaustionStall(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			_, st, _ := run(t, cfg, machine.Config{LoadRegs: 1}, `
.array buf 8 3
    lai  A1, 0
    lds  S1, =buf(A1)
    lds  S2, =buf+1(A1)
    lds  S3, =buf+2(A1)
    fadd S4, S1, S2
    fadd S4, S4, S3
    halt
`)
			if want := exec.Bits(exec.F64(3) + exec.F64(3) + exec.F64(3)); st.S[4] != want {
				t.Fatalf("S4 = %#x, want %#x", st.S[4], want)
			}
		})
	}
}

// TestFlushLeavesCleanState: the flush after a trap leaves an engine
// that runs the rest of the program.
func TestFlushLeavesCleanState(t *testing.T) {
	unit := asm.MustAssemble(`
    lai  A1, 3
    trap
    lai  A2, 4
    halt
`)
	m, e := newMachine(t, tagunit.Config{Stations: tagunit.Queue(6)}, machine.Config{})
	m.SetHandler(resumeAfterTrap)
	st := exec.NewState(unit.NewMemory())
	if _, err := m.Run(unit.Prog, st); err != nil {
		t.Fatal(err)
	}
	if !e.Drained() || e.InFlight() != 0 || st.A[2] != 4 {
		t.Fatal("engine not clean after flush+run")
	}
}

// TestSelfCheckEveryCycle runs a loop with loads, stores, an interrupt
// and (optionally) speculation, validating the queue invariants every
// cycle.
func TestSelfCheckEveryCycle(t *testing.T) {
	unit := asm.MustAssemble(`
.array buf 16 3
    lai   A0, 10
    lai   A1, 0
loop:
    addai A0, A0, -1
    lda   A2, =buf(A1)
    adda  A3, A3, A2
    sta   A3, =buf(A1)
    addai A1, A1, 1
    janz  loop
    trap
    lai   A4, 5
    halt
`)
	for _, spec := range []bool{false, true} {
		for _, b := range bypasses {
			e := tagunit.New(tagunit.Config{Stations: tagunit.Queue(6), Bypass: b})
			probe := &selfChecker{t: t, e: e}
			m := machine.New(e, machine.Config{Speculate: spec, Probe: probe})
			m.SetHandler(resumeAfterTrap)
			st := exec.NewState(unit.NewMemory())
			res, err := m.Run(unit.Prog, st)
			if err != nil || res.Trap != nil {
				t.Fatalf("spec=%v %v: %v %v", spec, b, err, res.Trap)
			}
			// Every cycle but the interrupt's and the last is sampled.
			if want := res.Stats.Cycles - res.Stats.Interrupts - 1; int64(probe.samples) != want {
				t.Fatalf("spec=%v %v: checked %d cycles, want %d", spec, b, probe.samples, want)
			}
			if st.A[4] != 5 || st.A[3] != 30 {
				t.Fatalf("spec=%v %v: A3=%d A4=%d", spec, b, st.A[3], st.A[4])
			}
		}
	}
}
