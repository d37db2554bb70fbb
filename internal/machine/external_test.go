package machine_test

import (
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue/tagunit"
	"ruu/internal/livermore"
	"ruu/internal/machine"
)

// TestExternalInterruptPreciseResume delivers an asynchronous interrupt
// mid-loop on the RUU: the handler observes a precise boundary (the
// restart PC is the oldest uncommitted instruction) and resumes; the
// kernel must finish with a correct result.
func TestExternalInterruptPreciseResume(t *testing.T) {
	k := livermore.ByName("LLL1")
	unit, err := k.Unit()
	if err != nil {
		t.Fatal(err)
	}
	for _, cycle := range []int64{0, 100, 5000} {
		eng := tagunit.New(tagunit.Config{Stations: tagunit.Queue(12)})
		m := machine.New(eng, machine.Config{})
		m.ScheduleExternal(cycle)
		fired := 0
		m.SetHandler(func(st *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
			if ev.Trap.Kind != exec.TrapExternal {
				t.Fatalf("kind = %v", ev.Trap.Kind)
			}
			if !ev.Precise {
				t.Fatal("external interrupt on the RUU not precise")
			}
			fired++
			// A device handler would run here; resuming at the reported
			// restart point continues the program exactly.
			return machine.InterruptAction{Resume: true, ResumePC: ev.Trap.PC}
		})
		st, err := k.NewState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(unit.Prog, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("cycle=%d: unrecovered %v", cycle, res.Trap)
		}
		if fired != 1 || res.Stats.Interrupts != 1 {
			t.Fatalf("cycle=%d: fired=%d interrupts=%d", cycle, fired, res.Stats.Interrupts)
		}
		if err := k.Verify(st); err != nil {
			t.Fatalf("cycle=%d: wrong result after external interrupt: %v", cycle, err)
		}
	}
}

// TestExternalInterruptImpreciseStops: the RSTU cannot service an
// asynchronous interrupt — the run stops with the external trap and an
// imprecise state, the paper's motivating failure.
func TestExternalInterruptImpreciseStops(t *testing.T) {
	k := livermore.ByName("LLL1")
	unit, _ := k.Unit()
	m := machine.New(tagunit.New(tagunit.Config{Stations: tagunit.Pool(12)}), machine.Config{})
	m.ScheduleExternal(200)
	m.SetHandler(func(st *exec.State, ev machine.InterruptEvent) machine.InterruptAction {
		t.Fatal("handler must not be consulted for an imprecise engine")
		return machine.InterruptAction{}
	})
	st, _ := k.NewState()
	res, err := m.Run(unit.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || res.Trap.Kind != exec.TrapExternal {
		t.Fatalf("trap = %v", res.Trap)
	}
	if res.Precise {
		t.Fatal("RSTU reported precise")
	}
}

// TestExternalInterruptAfterCompletion: an interrupt scheduled beyond
// the program's end never fires.
func TestExternalInterruptAfterCompletion(t *testing.T) {
	u, err := asm.Assemble("lai A1, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	eng := tagunit.New(tagunit.Config{Stations: tagunit.Queue(4)})
	m := machine.New(eng, machine.Config{})
	m.ScheduleExternal(1 << 40)
	st := exec.NewState(u.NewMemory())
	res, err := m.Run(u.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil || res.Stats.Interrupts != 0 {
		t.Fatalf("res = %+v", res)
	}
}
