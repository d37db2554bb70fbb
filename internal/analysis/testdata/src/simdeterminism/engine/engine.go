// Package engine holds the simdeterminism fixtures for an engine
// package, where every map range is a finding whatever its body. Each
// body below is order-insensitive by the general rule, so none of these
// loops is reported outside an engine package.
package engine

type Engine struct {
	ready   map[int]bool
	pending []int
	ids     []int
}

func (e *Engine) BeginCycle() {
	for id := range e.ready { // want `iteration over map e\.ready in an engine package`
		_ = id
	}
}

func (e *Engine) TryIssue() bool {
	e.wakeup()
	return false
}

// wakeup is reached from TryIssue; the rule does not depend on that.
func (e *Engine) wakeup() {
	for id := range e.ready { // want `in an engine package`
		_ = id
	}
}

// Dispatch collects keys by self-append, which the general rule accepts
// as a set to be sorted later.
func (e *Engine) Dispatch() {
	for id := range e.ready { // want `in an engine package`
		e.ids = append(e.ids, id)
	}
	for _, id := range e.pending { // a slice range is deterministic
		_ = id
	}
}
