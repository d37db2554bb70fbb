package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"ruu/internal/analysis/ssa"
)

// The policycontract pass enforces the engine/policy interface rules
// the pluggable-issue-logic refactor depends on. precisestate draws
// the first line — mutator calls only inside allowlisted functions —
// but an allowlist is a syntactic fence: it cannot tell architectural
// state from a scratch copy, and it says nothing about how a mutation
// site is reached. This pass adds the value-flow half of the
// contract, in three rules:
//
//  1. state-origin: every RegState/Memory mutation outside the
//     audited commit/writeback set must operate on state the function
//     built locally (a shadow copy for self-checking is legitimate).
//     The SSA layer traces the mutated receiver to its origin: a
//     receiver flowing in from the engine (method receiver, parameter,
//     or a field thereof) mutated outside the audited set is a
//     contract violation, reported with the call-graph path from the
//     engine entry point that reaches it.
//
//  2. probe-discipline: engines emit observability events through the
//     nil-guarded Context helpers (Observe/ObserveStall/
//     ObserveSample), never by calling .Probe.Event directly — the
//     direct call panics on a nil probe and skips the zero-allocation
//     fast path the noalloc claim is built on. Only the Context
//     helpers themselves may touch the field.
//
//  3. issue-order determinism: no map iteration anywhere in the issue
//     surface of an engine (its entry-point methods and everything
//     they reach inside the package). Map order is random per run;
//     submission-order determinism — the property the scheduler's
//     result cache and every golden test rely on — dies the moment
//     issue order depends on it. simdeterminism flags order-dependent
//     map ranges heuristically; inside an engine the rule is total.
//
// Engine identification reuses the probeemit fingerprint (the
// issue.Engine method set by name), so fixtures work without
// importing the real interface. See docs/ANALYSIS.md (v4).

// NewPolicyContract returns the policycontract pass over the given
// scope, sharing the audited-mutator allowlist with precisestate.
func NewPolicyContract(allow Allowlist, scope ...string) *Pass {
	var graph *CallGraph
	var prog *ssa.Program
	return &Pass{
		Name: "policycontract",
		Doc:  "engine/policy interface rules: state-origin, probe discipline, issue-order determinism",
		Init: func(snap *Snapshot) {
			graph = snap.Graph()
			prog = snap.ValueFlow()
		},
		Run: func(pkg *Package) []Finding {
			if graph == nil || !inScope(pkg.Path, scope) {
				return nil
			}
			var out []Finding
			out = append(out, checkStateOrigin(pkg, graph, prog, allow)...)
			out = append(out, checkProbeDiscipline(pkg)...)
			out = append(out, checkIssueOrderDeterminism(pkg)...)
			return out
		},
	}
}

// checkStateOrigin implements rule 1: mutations outside the audited
// set must target locally constructed state.
func checkStateOrigin(pkg *Package, graph *CallGraph, prog *ssa.Program, allow Allowlist) []Finding {
	var out []Finding
	for _, fd := range funcDecls(pkg) {
		if fd.Body == nil || allow.allowed(pkg.Path, fd.Name.Name) {
			continue
		}
		fd := fd
		var sf *ssa.Func // built lazily: most functions have no mutator calls
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, meth, ok := mutatorCall(pkg.Info, call)
			if !ok {
				return true
			}
			if sf == nil {
				sf = prog.FuncOf(ssa.Source{Decl: fd, Fset: pkg.Fset, Info: pkg.Info})
			}
			if receiverIsLocal(pkg, sf, call) {
				return true // a shadow copy built in this function: not architectural state
			}
			msg := fmt.Sprintf(
				"%s.%s mutates architectural state flowing in from outside %s, which is not in the audited commit/writeback set",
				recv, meth, fd.Name.Name)
			if path := entryPath(pkg, graph, fd); path != "" {
				msg += "; reachable from " + path
			}
			msg += "; route the write through the commit path or build the state locally"
			out = append(out, Finding{Pass: "policycontract", Pos: pkg.Pos(call), Message: msg})
			return true
		})
	}
	return out
}

// receiverIsLocal traces the mutator call's receiver through the SSA
// def-use chains: true only when every path to the receiver bottoms
// out in a value constructed inside the function (composite literal,
// &literal, or new). Parameters, the method receiver, fields, and
// anything unanalyzable count as flowing in from outside.
func receiverIsLocal(pkg *Package, f *ssa.Func, call *ast.CallExpr) bool {
	if f == nil || f.Approx {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base := baseIdent(sel.X)
	if base == nil {
		return false
	}
	d, ok := f.UseDef[base]
	if !ok {
		return false
	}
	return defIsLocalConstruction(f, d, map[*ssa.Def]bool{})
}

// baseIdent unwraps selectors, derefs, indexes, and parens down to the
// base identifier of a receiver expression (st in st.regs[i].SetReg).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func defIsLocalConstruction(f *ssa.Func, d *ssa.Def, seen map[*ssa.Def]bool) bool {
	if d == nil || seen[d] {
		return false
	}
	seen[d] = true
	switch d.Kind {
	case ssa.DefAssign:
		if d.Rhs == nil {
			return false
		}
		switch rhs := ast.Unparen(d.Rhs).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, isLit := ast.Unparen(rhs.X).(*ast.CompositeLit)
			return isLit
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && (id.Name == "new" || id.Name == "make") {
				if _, isBuiltin := f.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
			return false
		case *ast.Ident:
			// Copied from another local: follow it.
			if d2, ok := f.UseDef[rhs]; ok {
				return defIsLocalConstruction(f, d2, seen)
			}
			return false
		default:
			return false
		}
	case ssa.DefZero:
		// var st RegState — a zero value declared here is local.
		return true
	case ssa.DefPhi:
		for _, a := range d.Args {
			if !defIsLocalConstruction(f, a, seen) {
				return false
			}
		}
		return len(d.Args) > 0
	default: // DefParam, DefRange: flows in from outside the function
		return false
	}
}

// entryPath renders the shortest call-graph route from an engine entry
// point to fd, e.g. "(*RUU).BeginCycle via tryWakeup -> broadcast".
// Empty when no engine entry point reaches fd.
func entryPath(pkg *Package, graph *CallGraph, fd *ast.FuncDecl) string {
	target, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if target == nil {
		return ""
	}
	entries := make([]string, 0, len(engineEntryPoints))
	for entry := range engineEntryPoints {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	var best []*types.Func
	var bestEntry *types.Func
	for _, tn := range engineTypeNames(pkg) {
		for _, entry := range entries {
			root := graph.Lookup(pkg.Path, tn, entry)
			if root == nil {
				continue
			}
			p := callPath(graph, root, target)
			if p != nil && (best == nil || len(p) < len(best)) {
				best, bestEntry = p, root
			}
		}
	}
	if best == nil {
		return ""
	}
	s := "(*" + namedRecvOf(bestEntry) + ")." + bestEntry.Name()
	if len(best) > 1 {
		via := make([]string, 0, len(best)-1)
		for _, fn := range best[1:] {
			via = append(via, fn.Name())
		}
		s += " via " + strings.Join(via, " -> ")
	}
	return s
}

// callPath BFSes the module call graph from root, returning the node
// sequence root..target (shortest, deterministic), or nil.
func callPath(graph *CallGraph, root, target *types.Func) []*types.Func {
	if root == target {
		return []*types.Func{root}
	}
	prev := map[*types.Func]*types.Func{root: root}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		n := graph.nodes[fn]
		if n == nil {
			continue
		}
		for _, e := range n.edges {
			if _, seen := prev[e.callee]; seen {
				continue
			}
			prev[e.callee] = fn
			if e.callee == target {
				var path []*types.Func
				for at := target; ; at = prev[at] {
					path = append([]*types.Func{at}, path...)
					if at == root {
						return path
					}
				}
			}
			queue = append(queue, e.callee)
		}
	}
	return nil
}

// checkProbeDiscipline implements rule 2: no direct method calls on a
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

// checkIssueOrderDeterminism implements rule 3: no map ranges in the
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
