package precisestate

// commit is on the allowlist the test wires up: the audited
// architectural boundary.
func (e *Engine) commit() {
	e.st.SetReg(Reg{1}, 42)
	e.st.Mem.Write(4096, 1)
}

// bookkeeping that never touches architectural state is always fine.
func (e *Engine) occupancy() int {
	return int(e.st.Mem.Read(0))
}

// Shell has every engine method but Drained, so it is no engine: the
// fingerprint needs the whole method set.
type Shell struct{}

func (Shell) BeginCycle()    {}
func (Shell) TryIssue() bool { return false }
func (Shell) Flush()         {}
func (Shell) Retired() int   { return 0 }
func (Shell) InFlight() int  { return 0 }
