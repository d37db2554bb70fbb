package policycontract

// observe routes events through the Context helper: the sanctioned
// probe path.
func (e *Engine) observe() {
	e.ctx.Observe(Event{2})
}

// drain ranges over a slice on the issue surface: deterministic, fine.
func (e *Engine) Dispatch() {
	for _, id := range e.pending {
		_ = id
	}
}
