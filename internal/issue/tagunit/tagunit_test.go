package tagunit_test

import (
	"strings"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
)

// machines are the paper's reservation-station machines as
// configurations of the one engine, keyed by their reporting names.
var machines = map[string]tagunit.Config{
	"tomasulo": {Stations: tagunit.PerUnit(3)},
	"tu-dist":  {Stations: tagunit.PerUnit(3), TagUnitSize: 12},
	"tu-pool":  {Stations: tagunit.Pool(8), TagUnitSize: 12},
	"rstu":     {Stations: tagunit.Pool(8)},
	"rstu-2p":  {Stations: tagunit.Pool(8), Paths: 2},
}

func run(t *testing.T, e issue.Engine, src string) (machine.Result, *exec.State) {
	t.Helper()
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	st := exec.NewState(u.NewMemory())
	res, err := machine.New(e, machine.Config{}).Run(u.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

func TestIdentityAndModes(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			e := tagunit.New(cfg)
			if e.Name() != name {
				t.Errorf("Name() = %q", e.Name())
			}
			if e.Precise() {
				t.Error("reservation-station machines are imprecise")
			}
		})
	}
}

// TestStationCapacity: with stations held until broadcast, n independent
// slow instructions of one unit class issue without waiting for a
// station and the (n+1)th waits. This pins the station counts, including
// the defaults.
func TestStationCapacity(t *testing.T) {
	cases := []struct {
		name     string
		engine   func() issue.Engine
		stations int
	}{
		{"tomasulo-default", func() issue.Engine { return tagunit.New(tagunit.Config{}) }, tagunit.DefaultPerUnit},
		{"tomasulo-2", func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.PerUnit(2)}) }, 2},
		{"rstu-5", func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.Pool(5)}) }, 5},
		{"rstu-default", func() issue.Engine { return tagunit.New(tagunit.Config{Stations: tagunit.Pool(0)}) }, tagunit.DefaultPoolSize},
	}
	recips := func(n int) string {
		return strings.Repeat("    frecip S1, S7\n", n) + "    halt\n"
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res, _ := run(t, tc.engine(), recips(tc.stations)); res.Stats.Stalls[issue.StallEntry] != 0 {
				t.Errorf("%d instructions waited for a station", tc.stations)
			}
			if res, _ := run(t, tc.engine(), recips(tc.stations+1)); res.Stats.Stalls[issue.StallEntry] == 0 {
				t.Errorf("%d instructions never waited for a station", tc.stations+1)
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
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			res, st := run(t, tagunit.New(cfg), `
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
	res, st := run(t, tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: tagunit.PerUnit(1)}), `
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
	_, st := run(t, tagunit.New(tagunit.Config{Stations: tagunit.PerUnit(8)}), `
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
			_, st := run(t, tagunit.New(cfg), `
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
// motivates the RUU: a younger, faster instruction's register update is
// architecturally visible while an older one is still in flight. We
// observe it via the trap stop state.
func TestOutOfOrderCompletionUpdatesRegistersEarly(t *testing.T) {
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			res, st := run(t, tagunit.New(cfg), `
    lsi    S6, 42
    frecip S1, S6     ; old, slow
    lai    A1, 7      ; young, fast
    lds    S2, -1(A7) ; faults at dispatch (address -1)
    halt
`)
			if res.Trap == nil || res.Precise {
				t.Fatalf("expected an imprecise trap, got %v precise=%v", res.Trap, res.Precise)
			}
			if st.A[1] != 7 {
				t.Fatal("young instruction's update should already be visible (imprecise)")
			}
			if st.S[1] != 0 {
				t.Fatal("old slow instruction should still be in flight at the trap")
			}
		})
	}
}
