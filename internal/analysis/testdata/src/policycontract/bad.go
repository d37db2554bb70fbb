// Package policycontract holds fixtures for the policycontract pass:
// the engine/policy interface contract. The type shapes mirror the real
// repo by name — a Probe interface behind a Context with nil-guard
// helpers, and an Engine carrying the issue-engine method-set
// fingerprint — because the pass fingerprints structurally, never by
// import.
package policycontract

// Event and Probe mirror the obs observability surface.
type Event struct{ Kind int }

type Probe interface{ Event(e Event) }

// Context mirrors issue.Context: the nil-guard observability helpers.
type Context struct {
	Probe Probe
}

// Observe is the sanctioned path to the probe; the receiver-name
// exemption covers it.
func (c *Context) Observe(e Event) {
	if c.Probe != nil {
		c.Probe.Event(e)
	}
}

// Engine carries the issue-engine method-set fingerprint (BeginCycle,
// TryIssue, Flush, Retired, InFlight, Drained).
type Engine struct {
	ctx     *Context
	ready   map[int]bool
	pending []int
}

func (e *Engine) BeginCycle() {
	for id := range e.ready { // want `map iteration inside the issue surface`
		_ = id
	}
}

func (e *Engine) TryIssue() bool {
	e.wakeup()
	e.ctx.Probe.Event(Event{1}) // want `bypasses the nil-guard helpers`
	return false
}

func (e *Engine) Flush()        {}
func (e *Engine) Retired() int  { return 0 }
func (e *Engine) InFlight() int { return 0 }
func (e *Engine) Drained() bool { return true }

// wakeup is pulled into the issue surface by TryIssue.
func (e *Engine) wakeup() {
	for id := range e.ready { // want `map iteration inside the issue surface .*reached from \(\*Engine\)\.TryIssue`
		_ = id
	}
}
