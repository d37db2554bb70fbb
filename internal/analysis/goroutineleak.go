package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NewGoroutineLeak returns the goroutineleak pass, restricted to the
// given import-path prefixes (the service packages).
//
// A leaked goroutine in a server is a slow resource exhaustion that no
// single test run observes, so each go statement must carry visible
// evidence that it terminates:
//
//   - registration with a tracked sync.WaitGroup (a Done call in the
//     body — the spawner's Add/Wait is then the shutdown path), or
//   - no unbounded loop at all (the body runs to completion on its
//     own; range over a channel counts as bounded, terminating when
//     the sender closes it), or
//   - every `for {}` loop containing a return reached from a
//     ctx.Done()/quit-channel receive.
//
// Independently, a send on an unbuffered channel from inside a
// goroutine is flagged unless it sits in a select with an escape arm:
// if the receiver has already given up (the classic ctx-timeout race),
// the send blocks forever and pins the goroutine. Buffering the
// channel (make(chan T, 1)) makes the send unconditional.
//
// The pass resolves `go f(...)` through package-local functions and
// methods; spawns of out-of-package callees are trusted (flagging what
// it cannot see would punish every stdlib helper).
func NewGoroutineLeak(scope ...string) *Pass {
	p := &Pass{
		Name: "goroutineleak",
		Doc:  "every go statement has a visible termination path; no unbuffered sends from goroutines",
	}
	p.Run = func(pkg *Package) []Finding {
		if !inScope(pkg.Path, scope) {
			return nil
		}
		var out []Finding
		add := func(n ast.Node, format string, args ...any) {
			out = append(out, Finding{Pass: p.Name, Pos: pkg.Pos(n), Message: fmt.Sprintf(format, args...)})
		}
		decls := declBodies(pkg)
		unbuffered := unbufferedChans(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := spawnedBody(pkg, decls, g.Call)
				if body == nil {
					return true
				}
				checkTermination(pkg, g, body, add)
				checkGoroutineSends(pkg, body, unbuffered, add)
				return true
			})
		}
		return out
	}
	return p
}

// declBodies maps package-local function objects to their bodies.
func declBodies(pkg *Package) map[types.Object]*ast.BlockStmt {
	out := map[types.Object]*ast.BlockStmt{}
	for _, fd := range funcDecls(pkg) {
		if fd.Body != nil {
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				out[obj] = fd.Body
			}
		}
	}
	return out
}

// spawnedBody resolves the body a go statement runs: a literal's own
// body, or the declaration of a package-local callee.
func spawnedBody(pkg *Package, decls map[types.Object]*ast.BlockStmt, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return decls[pkg.Info.Uses[fun]]
	case *ast.SelectorExpr:
		return decls[pkg.Info.Uses[fun.Sel]]
	}
	return nil
}

// checkTermination flags a spawned body with no visible termination
// path.
func checkTermination(pkg *Package, g *ast.GoStmt, body *ast.BlockStmt, add func(ast.Node, string, ...any)) {
	if callsWaitGroupDone(pkg, body) {
		return
	}
	for _, loop := range unboundedLoops(body) {
		if loopCanExit(loop) {
			continue
		}
		add(g, "goroutine loops forever (for at line %d) with no WaitGroup registration and no ctx/quit-driven return; it can never terminate",
			pkg.Pos(loop).Line)
	}
}

// callsWaitGroupDone reports a Done() call on a sync.WaitGroup in the
// body (outside nested literals): the goroutine is tracked, and the
// spawner's Wait is its shutdown path.
func callsWaitGroupDone(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if t := pkg.Info.TypeOf(sel.X); t != nil {
			if named, ok := derefType(t).(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// unboundedLoops collects `for {}` / `for true {}` loops in the body,
// not descending into nested function literals. Range loops — over a
// channel or anything else — are bounded: a channel range ends when
// the sender closes it, which is a visible termination contract.
func unboundedLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var out []*ast.ForStmt
	inspectShallow(body, func(n ast.Node) bool {
		f, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if f.Cond == nil {
			out = append(out, f)
		} else if id, ok := f.Cond.(*ast.Ident); ok && id.Name == "true" {
			out = append(out, f)
		}
		return true
	})
	return out
}

// loopCanExit reports a return statement (or a receive from a Done()
// channel, whose arm conventionally returns) inside the loop body.
func loopCanExit(loop *ast.ForStmt) bool {
	can := false
	inspectShallow(loop.Body, func(n ast.Node) bool {
		if can {
			return false
		}
		if _, ok := n.(*ast.ReturnStmt); ok {
			can = true
			return false
		}
		return true
	})
	return can
}

// checkGoroutineSends flags sends on unbuffered channels from inside
// the spawned body, outside a select with an escape arm.
func checkGoroutineSends(pkg *Package, body *ast.BlockStmt, unbuffered map[types.Object]bool, add func(ast.Node, string, ...any)) {
	guarded := map[*ast.SendStmt]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		escape := false
		for _, c := range sel.Body.List {
			if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
				escape = true // default
			}
		}
		for _, c := range sel.Body.List {
			comm, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := comm.Comm.(*ast.SendStmt); ok && (escape || len(sel.Body.List) > 1) {
				guarded[send] = true
			}
		}
		return true
	})
	inspectShallow(body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok || guarded[send] {
			return true
		}
		obj := chanObject(pkg, send.Chan)
		if obj != nil && unbuffered[obj] {
			add(send, "send on unbuffered channel %s from a goroutine blocks forever if the receiver has given up; buffer it (make(chan T, 1)) or select on cancellation",
				obj.Name())
		}
		return true
	})
}

// unbufferedChans maps channel objects to whether their make call has
// no capacity argument.
func unbufferedChans(pkg *Package) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(pkg.Info, call, "make") {
			return
		}
		if t := pkg.Info.TypeOf(call); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return
			}
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			out[obj] = len(call.Args) < 2
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							record(id, n.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, id := range n.Names {
						record(id, n.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// chanObject resolves the channel expression to a variable object.
func chanObject(pkg *Package, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[e.Sel]
	}
	return nil
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// inspectShallow walks the node without descending into nested
// function literals (their goroutines and loops are analyzed at their
// own spawn sites).
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return fn(c)
	})
}
