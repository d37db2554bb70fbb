package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewSimDeterminism returns the simdeterminism pass over the packages
// under the scope import-path prefixes (empty scope = every package).
// In those also under the engines prefixes, the issue engines, every
// map range is a finding, whatever its body.
//
// Simulation results must be bit-for-bit reproducible: the paper's
// tables are cycle counts, and the repo's golden/property tests compare
// runs across engines and configurations, so any nondeterminism source
// in a simulation package silently invalidates both. The pass flags:
//
//   - time.Now / time.Since / time.Until: simulated time is the cycle
//     counter, never the wall clock.
//   - package-level math/rand calls (rand.Intn, rand.Int63, ...): they
//     draw from the process-global source; randomness must flow through
//     an explicitly seeded *rand.Rand (see internal/progsynth).
//   - go statements and channel selects: the simulator is
//     single-threaded by contract (probes rely on it), and select makes
//     control flow scheduling-dependent.
//   - range over a map whose body has order-dependent effects (emitting
//     output, appending through a call, plain writes to outer state):
//     map iteration order is randomized per run. Collect and sort the
//     keys first, or keep the body order-insensitive (pure counters,
//     writes into another map, delete).
//   - in an engine package, any range over a map, whatever its body:
//     issue order is what the scheduler's result cache and every golden
//     test rely on, so there the rule is total, not a judgement of the
//     loop body.
func NewSimDeterminism(scope, engines []string) *Pass {
	p := &Pass{
		Name: "simdeterminism",
		Doc:  "forbid nondeterminism sources (wall clock, global rand, goroutines, unordered map iteration) in simulation packages",
	}
	p.Run = func(pkg *Package) []Finding {
		if !inScope(pkg.Path, scope) {
			return nil
		}
		engine := len(engines) > 0 && inScope(pkg.Path, engines)
		var out []Finding
		add := func(n ast.Node, format string, args ...any) {
			out = append(out, Finding{Pass: p.Name, Pos: pkg.Pos(n), Message: fmt.Sprintf(format, args...)})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					add(n, "go statement in simulation code: the simulator is single-threaded by contract")
				case *ast.SelectStmt:
					add(n, "select over channels makes simulation control flow scheduling-dependent")
				case *ast.CallExpr:
					if pkgPath, name, ok := pkgLevelCallee(pkg.Info, n); ok {
						checkCall(add, n, pkgPath, name)
					}
				case *ast.RangeStmt:
					t := pkg.Info.TypeOf(n.X)
					if t == nil {
						break
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						break
					}
					if engine {
						add(n, "iteration over map %s in an engine package: map order is randomized per run and issue order must not depend on it; iterate a slice or sorted keys", exprString(n.X))
					} else if !orderInsensitive(pkg.Info, n.Body) {
						add(n, "iteration over map %s has order-dependent effects; iterate sorted keys instead (or make the body order-insensitive)", exprString(n.X))
					}
				}
				return true
			})
		}
		return out
	}
	return p
}

func checkCall(add func(ast.Node, string, ...any), call *ast.CallExpr, pkgPath, name string) {
	switch pkgPath {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			add(call, "call to time.%s: simulated time must come from the cycle counter, not the wall clock", name)
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// Constructors are how a deterministic *rand.Rand is made.
		default:
			add(call, "package-level %s.%s draws from the process-global source; thread a seeded *rand.Rand instead", pkgPath, name)
		}
	}
}

// pkgLevelCallee resolves a call of the form pkgname.Fun(...) to the
// imported package path and function name.
func pkgLevelCallee(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// orderInsensitive reports whether a statement's effects are the same
// under any iteration order of an enclosing map range. Allowed:
// writes into maps, delete, commutative compound assignments and
// counters, declarations of loop-local variables, key collection via
// x = append(x, ...), and control flow composed of the same. Any call
// (other than the allowed builtins) is presumed order-sensitive —
// emitting output or mutating state elsewhere.
func orderInsensitive(info *types.Info, s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.BlockStmt:
		for _, c := range s.List {
			if !orderInsensitive(info, c) {
				return false
			}
		}
		return true
	case *ast.AssignStmt:
		return assignInsensitive(info, s)
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(info, call, "delete")
	case *ast.DeclStmt:
		return !hasImpureCall(info, s)
	case *ast.IfStmt:
		return !hasImpureCallExpr(info, s.Cond) &&
			orderInsensitive(info, s.Init) &&
			orderInsensitive(info, s.Body) &&
			orderInsensitive(info, s.Else)
	case *ast.SwitchStmt:
		if s.Tag != nil && hasImpureCallExpr(info, s.Tag) {
			return false
		}
		return orderInsensitive(info, s.Init) && orderInsensitive(info, s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			if hasImpureCallExpr(info, e) {
				return false
			}
		}
		for _, c := range s.Body {
			if !orderInsensitive(info, c) {
				return false
			}
		}
		return true
	case *ast.ForStmt:
		return !hasImpureCallExpr(info, s.Cond) &&
			orderInsensitive(info, s.Init) &&
			orderInsensitive(info, s.Post) &&
			orderInsensitive(info, s.Body)
	case *ast.RangeStmt:
		return orderInsensitive(info, s.Body)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.EmptyStmt:
		return true
	default:
		// return, defer, go, send, labeled, etc.: conservative.
		return false
	}
}

func assignInsensitive(info *types.Info, s *ast.AssignStmt) bool {
	// Collecting keys with x = append(x, ...) is order-insensitive as a
	// set (the collector sorts before use; the pass cannot see that far,
	// so the sort is on the author).
	if isSelfAppend(info, s) {
		return true
	}
	if hasImpureCall(info, s) {
		return false
	}
	switch s.Tok {
	case token.DEFINE:
		return true // loop-local; order-sensitive uses are caught where used
	case token.ASSIGN:
		for _, lhs := range s.Lhs {
			if !insensitiveTarget(info, lhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true // commutative accumulation
	default:
		return false
	}
}

// insensitiveTarget: blank, an index into a map, or a self-append
// target (checked separately).
func insensitiveTarget(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "_"
	case *ast.IndexExpr:
		if t := info.TypeOf(e.X); t != nil {
			_, isMap := t.Underlying().(*types.Map)
			return isMap
		}
	}
	return false
}

// isSelfAppend matches `x = append(x, ...)` (single assign).
func isSelfAppend(info *types.Info, s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
		return false
	}
	return exprString(s.Lhs[0]) == exprString(call.Args[0])
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// hasImpureCall reports whether the node contains a call that could
// have effects: anything but type conversions and the pure builtins.
func hasImpureCall(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				switch id.Name {
				case "len", "cap", "min", "max", "append", "delete":
					// append/delete are handled by the statement rules;
					// here they only matter as "not output".
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}

func hasImpureCallExpr(info *types.Info, e ast.Expr) bool {
	return e != nil && hasImpureCall(info, e)
}

func exprString(e ast.Expr) string { return types.ExprString(e) }
