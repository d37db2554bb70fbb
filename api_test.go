package ruu_test

import (
	"strings"
	"testing"

	"ruu"
	"ruu/internal/machine"
)

// TestNewEngineKinds: every engine kind constructs and reports a stable
// name; unknown kinds error.
func TestNewEngineKinds(t *testing.T) {
	want := map[ruu.EngineKind]string{
		ruu.EngineSimple:        "simple",
		ruu.EngineTomasulo:      "tomasulo",
		ruu.EngineTagUnit:       "tu-dist",
		ruu.EngineRSPool:        "tu-pool",
		ruu.EngineRSTU:          "rstu",
		ruu.EngineRUU:           "ruu-full",
		ruu.EngineReorder:       "reorder-plain",
		ruu.EngineReorderBypass: "reorder-bypass",
		ruu.EngineReorderFuture: "reorder-future",
		"":                      "ruu-full", // default
	}
	for kind, name := range want {
		eng, err := ruu.NewEngine(ruu.Config{Engine: kind})
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		if eng.Name() != name {
			t.Errorf("%q: Name() = %q, want %q", kind, eng.Name(), name)
		}
	}
	if _, err := ruu.NewEngine(ruu.Config{Engine: "bogus"}); err == nil {
		t.Error("unknown engine kind accepted")
	}
	if _, err := ruu.NewMachine(ruu.Config{Engine: "bogus"}); err == nil {
		t.Error("NewMachine accepted an unknown engine kind")
	}
}

// TestNewEngineRejectsAbsurdSizes: a size above ruu.MaxSize is an error
// from NewEngine and NewMachine, for every engine, instead of a panic or
// a multi-gigabyte allocation; MaxSize itself is accepted.
func TestNewEngineRejectsAbsurdSizes(t *testing.T) {
	set := map[string]func(*ruu.Config, int){
		"entries":        func(c *ruu.Config, v int) { c.Entries = v },
		"tag unit size":  func(c *ruu.Config, v int) { c.TagUnitSize = v },
		"paths":          func(c *ruu.Config, v int) { c.Paths = v },
		"load registers": func(c *ruu.Config, v int) { c.Machine.LoadRegs = v },
	}
	for _, kind := range []ruu.EngineKind{ruu.EngineRUU, ruu.EngineRSTU, ruu.EngineRSPool, ruu.EngineTomasulo, ruu.EngineReorder, ruu.EngineSimple} {
		for field, apply := range set {
			for _, v := range []int{ruu.MaxSize + 1, 100_000_000, 1 << 60} {
				cfg := ruu.Config{Engine: kind}
				apply(&cfg, v)
				if _, err := ruu.NewEngine(cfg); err == nil || !strings.Contains(err.Error(), field) {
					t.Errorf("%s: %s=%d: err = %v", kind, field, v, err)
				}
				if _, err := ruu.NewMachine(cfg); err == nil {
					t.Errorf("%s: NewMachine accepted %s=%d", kind, field, v)
				}
			}
			cfg := ruu.Config{Engine: kind}
			apply(&cfg, ruu.MaxSize)
			if _, err := ruu.NewEngine(cfg); err != nil {
				t.Errorf("%s: %s=MaxSize rejected: %v", kind, field, err)
			}
		}
	}
}

// TestRunHelper: the one-call Run covers assemble + machine + run.
func TestRunHelper(t *testing.T) {
	res, err := ruu.Run(ruu.Config{Engine: ruu.EngineRUU, Entries: 8}, `
    lai  A1, 20
    lai  A2, 22
    adda A3, A1, A2
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	if res.Final.A[3] != 42 {
		t.Fatalf("A3 = %d", res.Final.A[3])
	}
	if res.Stats.Instructions != 4 {
		t.Fatalf("instructions = %d", res.Stats.Instructions)
	}
	if _, err := ruu.Run(ruu.Config{}, "bogus"); err == nil {
		t.Error("Run accepted invalid assembly")
	}
	if _, err := ruu.Run(ruu.Config{Engine: "bogus"}, "halt"); err == nil {
		t.Error("Run accepted an unknown engine")
	}
}

// TestFloatHelpers round-trip.
func TestFloatHelpers(t *testing.T) {
	for _, f := range []float64{0, 1.5, -3.25, 1e300} {
		if got := ruu.Float(ruu.FloatBits(f)); got != f {
			t.Errorf("round trip %g -> %g", f, got)
		}
	}
}

// TestReferenceHelper: the golden-reference entry point.
func TestReferenceHelper(t *testing.T) {
	u, err := ruu.Assemble(`
    lsi S1, 9
    trap
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	st, res, err := ruu.Reference(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || st.S[1] != 9 {
		t.Fatalf("res=%+v S1=%d", res, st.S[1])
	}
}

// TestSpeculationPlusExternalInterrupt: an asynchronous interrupt while
// speculative wrong-path work is in flight must still land on a precise
// boundary and resume to a correct result.
func TestSpeculationPlusExternalInterrupt(t *testing.T) {
	src := `
.array buf 16 3
    lai   A0, 30
    lai   A1, 0
loop:
    addai A0, A0, -1
    lda   A2, =buf(A1)
    adda  A3, A3, A2
    sta   A3, =buf(A1)
    addai A1, A1, 1
    janz  loop
    halt
`
	u, err := ruu.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, refRes, err := ruu.Reference(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{7, 50, 333} {
		cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 16}
		cfg.Machine = machine.Config{Speculate: true}
		m, err := ruu.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.ScheduleExternal(at)
		m.SetHandler(func(st *ruu.State, ev ruu.InterruptEvent) ruu.InterruptAction {
			if !ev.Precise {
				t.Error("imprecise external event on the RUU")
			}
			return ruu.InterruptAction{Resume: true, ResumePC: ev.Trap.PC}
		})
		st := ruu.NewState(u)
		res, err := m.Run(u.Prog, st)
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		if res.Trap != nil {
			t.Fatalf("at=%d: %v", at, res.Trap)
		}
		if res.Stats.Instructions != refRes.Executed {
			t.Errorf("at=%d: executed %d, want %d", at, res.Stats.Instructions, refRes.Executed)
		}
		if !st.EqualRegs(ref) {
			t.Errorf("at=%d: registers differ: %v", at, st.DiffRegs(ref))
		}
	}
}

// TestLIWraparound: with 3-bit counters and 1000 sequential instances of
// one register, the LI counter wraps many times; correctness must hold
// under every engine that uses instance counting.
func TestLIWraparound(t *testing.T) {
	var b strings.Builder
	b.WriteString("    lai A0, 200\n    lai A1, 0\nloop:\n    addai A0, A0, -1\n")
	// Five instances of A1 per iteration -> LI wraps every ~1.6 iterations.
	for i := 0; i < 5; i++ {
		b.WriteString("    addai A1, A1, 1\n")
	}
	b.WriteString("    janz loop\n    halt\n")
	u, err := ruu.Assemble(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{1, 2, 3} {
		for _, spec := range []bool{false, true} {
			cfg := ruu.Config{Engine: ruu.EngineRUU, Entries: 10, CounterBits: bits}
			cfg.Machine.Speculate = spec
			m, err := ruu.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := ruu.NewState(u)
			res, err := m.Run(u.Prog, st)
			if err != nil {
				t.Fatalf("bits=%d spec=%v: %v", bits, spec, err)
			}
			if res.Trap != nil {
				t.Fatalf("bits=%d spec=%v: %v", bits, spec, res.Trap)
			}
			if st.A[1] != 1000 {
				t.Fatalf("bits=%d spec=%v: A1 = %d, want 1000", bits, spec, st.A[1])
			}
		}
	}
}
