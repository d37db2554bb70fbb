package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// The policycontract pass enforces the engine/policy interface rules
// the pluggable-issue-logic refactor depends on, in two rules
// (architectural-state writes are precisestate's):
//
//  1. probe-discipline: engines emit observability events through the
//     nil-guarded Context helpers (Observe/ObserveStall/
//     ObserveSample), never by calling .Probe.Event directly — the
//     direct call panics on a nil probe and skips the zero-allocation
//     fast path the noalloc claim is built on. Only the Context
//     helpers themselves may touch the field.
//
//  2. issue-order determinism: no map iteration anywhere in the issue
//     surface of an engine (its entry-point methods and everything
//     they reach inside the package). Map order is random per run;
//     submission-order determinism — the property the scheduler's
//     result cache and every golden test rely on — dies the moment
//     issue order depends on it. simdeterminism flags order-dependent
//     map ranges heuristically; inside an engine the rule is total.
//
// Engine identification reuses the probeemit fingerprint (the
// issue.Engine method set by name), so fixtures work without
// importing the real interface. See docs/ANALYSIS.md.

// NewPolicyContract returns the policycontract pass over the given
// scope.
func NewPolicyContract(scope ...string) *Pass {
	return &Pass{
		Name: "policycontract",
		Doc:  "engine/policy interface rules: probe discipline, issue-order determinism",
		Run: func(pkg *Package) []Finding {
			if !inScope(pkg.Path, scope) {
				return nil
			}
			return append(checkProbeDiscipline(pkg), checkIssueOrderDeterminism(pkg)...)
		},
	}
}

// checkProbeDiscipline implements rule 1: no direct method calls on a
// Probe field outside the Context nil-guard helpers.
func checkProbeDiscipline(pkg *Package) []Finding {
	var out []Finding
	for _, fd := range funcDecls(pkg) {
		if fd.Body == nil {
			continue
		}
		if recvTypeName(fd) == "Context" {
			continue // the nil-guard helpers themselves
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			probe, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok || !isProbeField(pkg.Info, probe) {
				return true
			}
			out = append(out, Finding{
				Pass: "policycontract",
				Pos:  pkg.Pos(call),
				Message: fmt.Sprintf(
					"direct %s call on the Probe field bypasses the nil-guard helpers (panics with no probe attached, and skips the zero-allocation fast path); use Context.Observe/ObserveStall/ObserveSample",
					sel.Sel.Name),
			})
			return true
		})
	}
	return out
}

// isProbeField reports whether sel selects an interface-typed struct
// field named Probe.
func isProbeField(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || sel.Sel.Name != "Probe" {
		return false
	}
	return types.IsInterface(s.Obj().Type())
}

// checkIssueOrderDeterminism implements rule 2: no map ranges in the
// issue surface of an engine.
func checkIssueOrderDeterminism(pkg *Package) []Finding {
	engines := engineTypeNames(pkg)
	if len(engines) == 0 {
		return nil
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fd := range funcDecls(pkg) {
		if fd.Body == nil {
			continue
		}
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
		}
	}
	// surface[fn] names the engine entry whose issue surface reaches
	// fn (first engine/entry found wins; one finding per site).
	surface := map[*types.Func]string{}
	var queue []*types.Func
	reach := func(fn *types.Func, via string) {
		if fn == nil || surface[fn] != "" {
			return
		}
		if _, here := decls[fn]; !here {
			return // out of package: its own package's pass covers it
		}
		surface[fn] = via
		queue = append(queue, fn)
	}
	for _, tn := range engines {
		for _, fd := range funcDecls(pkg) {
			if recvTypeName(fd) != tn || !engineEntryPoints[fd.Name.Name] {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			reach(fn, "(*"+tn+")."+fd.Name.Name)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		via := surface[fn]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pkg.Info, call); callee != nil {
				reach(callee, via)
			}
			return true
		})
	}

	var out []Finding
	fns := make([]*types.Func, 0, len(surface))
	for fn := range surface {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return decls[fns[i]].Pos() < decls[fns[j]].Pos() })
	for _, fn := range fns {
		via := surface[fn]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, Finding{
				Pass: "policycontract",
				Pos:  pkg.Pos(rs),
				Message: fmt.Sprintf(
					"map iteration inside the issue surface of an engine (reached from %s): map order is randomized per run and breaks submission-order determinism; iterate a slice or sort the keys first",
					via),
			})
			return true
		})
	}
	return out
}
