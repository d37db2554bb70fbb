package ruu

import (
	"fmt"
	"testing"

	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/livermore"
	"ruu/internal/obs"
)

// stateOracle is a probe that checks the paper's central claim (§5) at
// every commit: the architectural state equals sequential execution of
// the committed prefix. It steps a functional shadow through each
// committed instruction in program order, then compares the registers
// after every commit and memory after every committed store. It keeps
// the first mismatch and stops checking.
//
// The machine retires a branch resolved in decode once the engine has
// committed everything issued before it, and the reorder buffer commits
// every finished head entry in one cycle, so such a branch's Commit can
// follow younger engine commits. Branches and NOPs write no state: the
// shadow steps through them when a younger commit arrives, and counts
// each one off when its own Commit does.
type stateOracle struct {
	name   string // configuration and kernel or seed, for failures
	prog   *isa.Program
	live   *exec.State
	shadow *exec.State
	ahead  []int // PCs the shadow stepped through before their Commit
	err    error
}

// newStateOracle returns an oracle for a run of prog on st. Build it
// before the run: the shadow starts as a copy of st.
func newStateOracle(name string, prog *isa.Program, st *exec.State) *stateOracle {
	return &stateOracle{name: name, prog: prog, live: st, shadow: st.Clone()}
}

// withStateOracle attaches an oracle for a run of prog on st beside
// cfg's probe when cfg's engine is precise. It returns cfg unchanged
// and a nil oracle otherwise.
func withStateOracle(cfg Config, name string, prog *isa.Program, st *exec.State) (Config, *stateOracle) {
	eng, err := NewEngine(cfg)
	if err != nil || !eng.Precise() {
		return cfg, nil
	}
	o := newStateOracle(name, prog, st)
	cfg.Machine.Probe = CombineProbes(cfg.Machine.Probe, o)
	return cfg, o
}

// Err returns the first mismatch; a nil oracle checked nothing.
func (o *stateOracle) Err() error {
	if o == nil {
		return nil
	}
	return o.err
}

// Sample implements Probe.
func (o *stateOracle) Sample(obs.Sample) {}

// Event implements Probe.
func (o *stateOracle) Event(e obs.Event) {
	if e.Kind != obs.KindCommit || o.err != nil {
		return
	}
	if len(o.ahead) > 0 && o.ahead[0] == e.PC {
		o.ahead = o.ahead[1:]
		return
	}
	for o.shadow.PC != e.PC && o.canStepAhead() {
		o.ahead = append(o.ahead, o.shadow.PC)
		o.shadow.Step(o.prog)
	}
	if o.shadow.PC != e.PC || o.shadow.Halted {
		o.fail(e, "the shadow is at pc %d", o.shadow.PC)
		return
	}
	ins, trap := o.shadow.Step(o.prog)
	if trap != nil {
		o.fail(e, "the shadow traps: %v", trap)
		return
	}
	if !o.live.EqualRegs(o.shadow) {
		r := o.live.DiffRegs(o.shadow)[0]
		o.fail(e, "%v is %d, want %d", r, o.live.Reg(r), o.shadow.Reg(r))
		return
	}
	if ins.Op.Info().Store {
		if a := o.live.Mem.FirstDiff(o.shadow.Mem); a >= 0 {
			o.fail(e, "word %d is %d, want %d", a, o.live.Mem.Peek(a), o.shadow.Mem.Peek(a))
		}
	}
}

// canStepAhead reports whether the shadow's next instruction writes no
// state, so it may step through it ahead of its Commit: a branch, a
// jump or a NOP.
func (o *stateOracle) canStepAhead() bool {
	pc := o.shadow.PC
	if o.shadow.Halted || pc < 0 || pc >= len(o.prog.Instructions) {
		return false
	}
	op := o.prog.Instructions[pc].Op
	return op.IsBranch() || op == isa.Nop
}

func (o *stateOracle) fail(e obs.Event, format string, args ...any) {
	o.err = fmt.Errorf("%s: commit I%d at pc %d, cycle %d: %s",
		o.name, e.ID, e.PC, e.Cycle, fmt.Sprintf(format, args...))
}

// TestStateOracleCatchesImprecise keeps the oracle honest: forced onto
// the RSTU, which retires out of program order, it must report a
// mismatch on the first kernel.
func TestStateOracleCatchesImprecise(t *testing.T) {
	k := livermore.ByName("LLL1")
	u, err := k.Unit()
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.NewState()
	if err != nil {
		t.Fatal(err)
	}
	o := newStateOracle("RSTU/15, LLL1", u.Prog, st)
	cfg := Config{Engine: EngineRSTU, Entries: 15}
	cfg.Machine.Probe = o
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(u.Prog, st); err != nil {
		t.Fatal(err)
	}
	if o.Err() == nil {
		t.Fatal("the oracle passed an out-of-order run of the RSTU")
	}
	t.Log(o.Err())
}
