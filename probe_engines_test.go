package ruu

import "testing"

// TestAllEnginesCommitCount checks the cross-engine invariant of the
// probe stream on every issue mechanism, on a program with a NOP and a
// store followed by a load: checkLifecycle's accounting, which the
// metrics collector and trace exporter rely on.
func TestAllEnginesCommitCount(t *testing.T) {
	src := `
.array buf 1
	lai A1, 8
	lai A0, 8
	lsi S1, 3
	fadd S2, S1, S1
	fmul S3, S2, S1
	lai A2, =buf
	sts S3, 0(A2)
	lds S4, 0(A2)
	nop
loop:
	addai A3, A3, 1
	addai A0, A0, -1
	janz loop
	halt
`
	for _, ek := range []EngineKind{EngineSimple, EngineTomasulo, EngineTagUnit, EngineRSPool, EngineRSTU, EngineRUU, EngineReorder, EngineReorderBypass, EngineReorderFuture} {
		unit, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewProbeRecorder()
		cfg := Config{Engine: ek}
		cfg.Machine.Probe = rec
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(unit.Prog, NewState(unit))
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("%s: trap %v", ek, res.Trap)
		}
		if err := checkLifecycle(rec.Events, res.Stats.Instructions); err != nil {
			t.Errorf("%s: lifecycle: %v", ek, err)
		}
	}
}
