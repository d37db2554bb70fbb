package analysis

import (
	"fmt"
	"go/ast"
	"go/types"

	"ruu/internal/analysis/ssa"
)

// The nilness pass runs two value-flow checks over the service and
// tooling layers (the simulation core is covered by its own passes):
//
//   - nil dereference: a pointer whose unique reaching definition is
//     provably nil — declared without an initializer, assigned a nil
//     literal, or every phi operand nil — is dereferenced (*p, or a
//     field selection through the pointer); and the branch-sensitive
//     variant, a dereference strictly dominated by the nil edge of an
//     explicit `p == nil` / `p != nil` check on the same definition.
//     A dereference dominated by the non-nil edge of a check is never
//     reported, however the definition looks.
//
//   - discarded error: a call statement whose result (or any member of
//     its result tuple) is an error, evaluated for effect with the
//     result thrown away. fmt's print family is exempt (discarding its
//     error is idiomatic); `defer` and `go` statements are distinct
//     node kinds and are naturally out of scope.
//
// Both checks ride on the SSA layer (internal/analysis/ssa): UseDef
// resolves each use to one definition, CondNilCheck recognizes guard
// conditions, and the dominator tree provides the path sensitivity.
// Functions the SSA builder marks approximate (goto) are skipped —
// soundness degrades to silence, never to a false report.

// NewNilness returns the nilness pass limited to the given package
// scope prefixes.
func NewNilness(scope []string) *Pass {
	var prog *ssa.Program
	return &Pass{
		Name: "nilness",
		Doc:  "provably-nil dereferences and silently discarded errors",
		Init: func(snap *Snapshot) {
			prog = snap.ValueFlow()
		},
		Run: func(pkg *Package) []Finding {
			if prog == nil || !inScope(pkg.Path, scope) {
				return nil
			}
			var out []Finding
			for _, fd := range funcDecls(pkg) {
				if fd.Body == nil {
					continue
				}
				out = append(out, discardedErrors(pkg, fd)...)
				f := prog.FuncOf(ssa.Source{Decl: fd, Fset: pkg.Fset, Info: pkg.Info})
				if f == nil || f.Approx {
					continue
				}
				out = append(out, nilDerefs(pkg, f)...)
			}
			return out
		},
	}
}

// nilDerefs reports dereferences of provably-nil definitions within
// one function.
func nilDerefs(pkg *Package, f *ssa.Func) []Finding {
	// Collect the function's nil checks once: block → (def, nil edge,
	// non-nil edge).
	type nilCheck struct {
		def             *ssa.Def
		cond            ast.Expr
		nilEdge, okEdge *ssa.Block
	}
	var checks []nilCheck
	for _, b := range f.Blocks {
		d, nilOnTrue, ok := f.CondNilCheck(b)
		if !ok || len(b.Succs) != 2 {
			continue
		}
		nc := nilCheck{def: d, cond: b.Cond, nilEdge: b.Succs[0], okEdge: b.Succs[1]}
		if !nilOnTrue {
			nc.nilEdge, nc.okEdge = nc.okEdge, nc.nilEdge
		}
		checks = append(checks, nc)
	}

	var out []Finding
	report := func(id *ast.Ident, format string, args ...any) {
		out = append(out, Finding{
			Pass:    "nilness",
			Pos:     pkg.Pos(id),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, id := range sortedUses(f) {
		d := f.UseDef[id]
		if !derefContext(f, id) {
			continue
		}
		ub := f.BlockOf(id)
		if ub == nil {
			continue
		}
		// A dominating non-nil guard clears the use regardless of how
		// the definition looks (the guarded region is the purpose of
		// the check).
		guarded := false
		onNilPath := false
		var checkPos string
		for _, nc := range checks {
			if nc.def != d {
				continue
			}
			if ssa.Dominates(nc.okEdge, ub) {
				guarded = true
				break
			}
			if ssa.Dominates(nc.nilEdge, ub) {
				onNilPath = true
				checkPos = pkg.Pos(nc.cond).String()
			}
		}
		if guarded {
			continue
		}
		switch {
		case provablyNil(f, d, map[*ssa.Def]bool{}):
			report(id, "%s is provably nil here (defined nil at %s); dereferencing it panics", id.Name, pkg.Fset.Position(d.Pos()))
		case onNilPath:
			report(id, "%s is dereferenced on the nil branch of its own nil check (%s)", id.Name, checkPos)
		}
	}
	return out
}

// sortedUses returns the function's resolved uses in source order, so
// findings come out deterministically.
func sortedUses(f *ssa.Func) []*ast.Ident {
	out := make([]*ast.Ident, 0, len(f.UseDef))
	for id := range f.UseDef {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// provablyNil reports whether every path into d carries a nil value:
// zero-value declarations of nilable types, nil-literal assignments,
// and phis all of whose operands are provably nil. Cycles and unknown
// shapes resolve to false — the pass under-reports rather than guess.
func provablyNil(f *ssa.Func, d *ssa.Def, seen map[*ssa.Def]bool) bool {
	if d == nil || seen[d] {
		return false
	}
	seen[d] = true
	switch d.Kind {
	case ssa.DefZero:
		return nilable(d.Var.Type())
	case ssa.DefAssign:
		if d.Rhs == nil {
			return false
		}
		tv, ok := f.Info.Types[d.Rhs]
		return ok && tv.IsNil()
	case ssa.DefPhi:
		for _, a := range d.Args {
			if a == nil || !provablyNil(f, a, seen) {
				return false
			}
		}
		return len(d.Args) > 0
	default: // DefParam, DefRange: value unknown
		return false
	}
}

func nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// derefContext reports whether the identifier use would dereference a
// nil value: an explicit *p, a field selection through a pointer, or
// indexing a slice. Method calls (legal on nil pointer receivers), map
// reads (nil-safe), and plain value uses do not count.
func derefContext(f *ssa.Func, id *ast.Ident) bool {
	par := f.Parent(id)
	switch par := par.(type) {
	case *ast.StarExpr:
		return true
	case *ast.SelectorExpr:
		if par.X != ast.Expr(id) {
			return false
		}
		sel, ok := f.Info.Selections[par]
		if !ok || sel.Kind() != types.FieldVal {
			return false
		}
		_, isPtr := sel.Recv().Underlying().(*types.Pointer)
		return isPtr
	case *ast.IndexExpr:
		if par.X != ast.Expr(id) {
			return false
		}
		v := f.ObjOf(id)
		if v == nil {
			return false
		}
		_, isSlice := v.Type().Underlying().(*types.Slice)
		return isSlice
	}
	return false
}

// discardedErrors flags expression statements that evaluate a call and
// drop an error result on the floor.
func discardedErrors(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		if !returnsError(pkg.Info, call) {
			return true
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				return true // discarding fmt print errors is idiomatic
			}
		}
		if neverFails(pkg.Info, call) {
			return true
		}
		out = append(out, Finding{
			Pass:    "nilness",
			Pos:     pkg.Pos(es),
			Message: "call result includes an error that is silently discarded; handle it or assign it to _ to make the drop explicit",
		})
		return true
	})
	return out
}

// neverFails reports whether the call is a method call on a
// standard-library type whose error result is documented to always be
// nil — strings.Builder, bytes.Buffer, and the hash.Hash interface all
// promise "never returns an error", and forcing their callers to thread
// a vacuous error check (or a suppression marker) would train people to
// ignore the pass. The static type of the receiver expression decides
// (hash.Hash inherits Write from io.Writer, so the method object alone
// cannot tell a hash write from a fallible one).
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer", "hash.Hash":
		return true
	}
	return false
}

// returnsError reports whether the call's result type is, or contains,
// the predeclared error type.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
