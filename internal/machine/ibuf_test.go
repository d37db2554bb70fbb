package machine_test

import (
	"strings"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue/tagunit"
	"ruu/internal/livermore"
	"ruu/internal/machine"
)

// TestKernelsFitInBuffers validates the paper's assumption (iii): with
// CRAY-1-sized buffers (4 x 64 parcels), every Livermore kernel incurs
// only cold-start misses — each buffer window is filled at most once.
func TestKernelsFitInBuffers(t *testing.T) {
	for _, k := range livermore.Kernels() {
		u, err := k.Unit()
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.InstructionBuffers = true
		cfg.IBufCount = 4
		cfg.IBufParcels = 64 // the CRAY-1's buffer capacity
		m := machine.New(tagunit.New(tagunit.Config{Stations: tagunit.Queue(12)}), cfg)
		st, err := k.NewState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(u.Prog, st)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		_, parcels := u.Prog.ParcelAddrs()
		coldWindows := int64((parcels + 63) / 64)
		if res.Stats.IBufMisses > coldWindows {
			t.Errorf("%s: %d buffer misses, expected at most %d cold fills",
				k.Name, res.Stats.IBufMisses, coldWindows)
		}
		if err := k.Verify(st); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

// TestBigLoopThrashesBuffers: a loop body larger than the total buffer
// capacity misses on every iteration and runs measurably slower.
func TestBigLoopThrashesBuffers(t *testing.T) {
	// Body of ~80 two-parcel instructions = ~160 parcels, far beyond
	// 4 x 16 = 64 parcels of capacity.
	var b strings.Builder
	b.WriteString("    lai A0, 20\nloop:\n    addai A0, A0, -1\n")
	for i := 0; i < 80; i++ {
		b.WriteString("    addai A1, A1, 1\n")
	}
	b.WriteString("    janz loop\n    halt\n")
	u, err := asm.Assemble(b.String())
	if err != nil {
		t.Fatal(err)
	}
	run := func(buffers bool) (int64, int64) {
		cfg := machine.DefaultConfig()
		cfg.InstructionBuffers = buffers
		m := machine.New(tagunit.New(tagunit.Config{Stations: tagunit.Queue(12)}), cfg)
		st := exec.NewState(u.NewMemory())
		res, err := m.Run(u.Prog, st)
		if err != nil {
			t.Fatal(err)
		}
		if st.A[1] != 20*80 {
			t.Fatalf("A1 = %d", st.A[1])
		}
		return res.Stats.Cycles, res.Stats.IBufMisses
	}
	fast, m0 := run(false)
	slow, misses := run(true)
	if m0 != 0 {
		t.Fatalf("misses counted with buffers disabled: %d", m0)
	}
	if misses < 20*9 { // ~10 windows per iteration, re-filled every time
		t.Fatalf("only %d misses; the loop should thrash", misses)
	}
	if slow <= fast {
		t.Fatalf("thrashing loop not slower: %d vs %d cycles", slow, fast)
	}
}

// TestStraddlingInstructionFetch: a two-parcel instruction crossing a
// buffer boundary requires both windows.
func TestStraddlingInstructionFetch(t *testing.T) {
	// 15 one-parcel nops put the next (two-parcel) instruction at parcel
	// 15, straddling windows [0,16) and [16,32).
	var b strings.Builder
	for i := 0; i < 15; i++ {
		b.WriteString("    nop\n")
	}
	b.WriteString("    lai A1, 7\n    halt\n")
	u, err := asm.Assemble(b.String())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.InstructionBuffers = true
	m := machine.New(tagunit.New(tagunit.Config{Stations: tagunit.Queue(8)}), cfg)
	st := exec.NewState(u.NewMemory())
	res, err := m.Run(u.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	if st.A[1] != 7 {
		t.Fatalf("A1 = %d", st.A[1])
	}
	// Windows touched: [0,16) and [16,32) -> exactly 2 fills.
	if res.Stats.IBufMisses != 2 {
		t.Fatalf("misses = %d, want 2", res.Stats.IBufMisses)
	}
}
