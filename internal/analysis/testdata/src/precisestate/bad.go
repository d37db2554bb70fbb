// Package precisestate holds fixtures for the precisestate pass:
// architectural register-file and memory mutations outside the audited
// commit/writeback set. The mutator shapes mirror exec.RegState /
// exec.State / memsys.Memory by name; the pass resolves receivers
// through the type checker, so promoted methods are seen too.
package precisestate

type Reg struct{ n int }

// RegState mirrors exec.RegState.
type RegState struct{ a [8]int64 }

func (r *RegState) SetReg(reg Reg, v int64) { r.a[reg.n] = v }

// Memory mirrors memsys.Memory.
type Memory struct{ words []int64 }

func (m *Memory) Write(addr, v int64)   { m.words[addr] = v }
func (m *Memory) Poke(addr, v int64)    { m.words[addr] = v }
func (m *Memory) Read(addr int64) int64 { return m.words[addr] }

// State mirrors exec.State (RegState promoted).
type State struct {
	RegState
	Mem *Memory
}

// Clone mirrors exec.State.Clone.
func (s *State) Clone() *State { c := *s; return &c }

// Engine carries the issue-engine method-set fingerprint (BeginCycle,
// TryIssue, Flush, Retired, InFlight, Drained), so findings in code an
// entry point reaches name the call path.
type Engine struct{ st *State }

func (e *Engine) BeginCycle()    { e.writeback() }
func (e *Engine) TryIssue() bool { return false }
func (e *Engine) Flush()         {}
func (e *Engine) Retired() int   { return 0 }
func (e *Engine) InFlight() int  { return 0 }
func (e *Engine) Drained() bool  { return true }

// dispatch mutates architectural state from an execution-phase path:
// exactly the scribble the precise-interrupt discipline forbids.
func (e *Engine) dispatch() {
	e.st.SetReg(Reg{1}, 42) // want `RegState\.SetReg`
	e.st.Mem.Write(4096, 1) // want `Memory\.Write`
	e.st.Mem.Poke(4097, 2)  // want `Memory\.Poke`
	_ = e.st.Mem.Read(4096) // reads are always legal
}

// writeback mutates architectural state off the audited set, reached
// from the BeginCycle entry point.
func (e *Engine) writeback() {
	e.st.SetReg(Reg{1}, 42) // want `RegState\.SetReg .*; reachable from \(\*Engine\)\.BeginCycle via writeback`
}

// scribble takes architectural state as a parameter. No entry point
// reaches it, so its finding names no path.
func scribble(st *RegState) {
	st.SetReg(Reg{0}, 7) // want `RegState\.SetReg outside .*\(allowed: commit\); see docs`
}

// shadowCheck mutates copies it built itself. Outside the allowlist
// that is still a finding: the set of mutating functions is closed
// whatever the receiver, so a shadow copy needs an audited function or
// a suppression.
func (e *Engine) shadowCheck() bool {
	shadow := &State{}
	shadow.SetReg(Reg{2}, 3)       // want `RegState\.SetReg`
	e.st.Clone().SetReg(Reg{3}, 4) // want `RegState\.SetReg`
	return shadow.a[2] == e.st.a[2]
}
