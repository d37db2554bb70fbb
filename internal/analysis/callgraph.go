package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the lightweight dataflow layer the allocation pass
// runs on: a module-wide call graph in the RTA style. Edges come from
// two sources — static calls resolved through the type-checker's Uses
// map, and interface-method calls resolved to every concrete method of
// every module type that implements the interface (rapid type analysis
// without the instantiation filter: any implementing type counts,
// which over-approximates but never misses a callee inside the
// module). Bodies of function literals are attributed to their
// enclosing declared function, so a closure's calls and allocations
// belong to the function that created it.
//
// Each call edge records whether its call site sits inside a for/range
// loop (or inside a function literal, which a per-cycle driver only
// creates to invoke repeatedly). That bit powers loop-rooted hotness:
// from a loop root like (*machine.Machine).Run, only code reached from
// inside the cycle loop is hot — the per-run setup above the loop is
// not. See docs/ANALYSIS.md.

// CallGraph is a module-wide call graph over the loaded packages.
type CallGraph struct {
	nodes map[*types.Func]*cgNode
	// namedTypes are all named (non-interface) types declared in the
	// loaded packages, the RTA universe for interface dispatch.
	namedTypes []*types.Named
	// implCache memoizes interface-method resolution. It is written
	// only while BuildCallGraph runs, so the finished graph is
	// read-only and safe to share between passes.
	implCache map[*types.Func][]*types.Func
}

// cgNode is one declared function with a body.
type cgNode struct {
	fn    *types.Func
	pkg   *Package
	decl  *ast.FuncDecl
	edges []cgEdge
}

// cgEdge is one call site: the callee, whether the site is inside a
// loop (or function literal) of the caller, and whether it sits in
// exempt context — panic arguments, return statements, or a block
// guarded by an interface non-nil check — through which hotness does
// not propagate (a diagnostic dump inside panic(...) is not hot).
type cgEdge struct {
	callee *types.Func
	inLoop bool
	exempt bool
}

// HotRoot names a root of hot-path reachability. With LoopOnly set,
// only the root's loop bodies (and function literals) seed hotness —
// straight-line setup code in the root stays cold.
type HotRoot struct {
	// Pkg is the import path ("ruu/internal/machine").
	Pkg string
	// Recv is the bare receiver type name ("Machine"), empty for a
	// plain function.
	Recv string
	// Func is the function or method name ("Run").
	Func string
	// LoopOnly marks a driver whose per-cycle work is its loop body.
	LoopOnly bool
}

// BuildCallGraph constructs the call graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:     map[*types.Func]*cgNode{},
		implCache: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
		for _, fd := range funcDecls(pkg) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || fd.Body == nil {
				continue
			}
			g.nodes[fn] = &cgNode{fn: fn, pkg: pkg, decl: fd}
		}
	}
	for _, n := range g.nodes {
		g.collectEdges(n)
	}
	return g
}

// collectEdges walks one function body recording call edges with
// their loop and exemption context.
func (g *CallGraph) collectEdges(n *cgNode) {
	info := n.pkg.Info
	var walk func(node ast.Node, inLoop, exempt bool)
	walk = func(node ast.Node, inLoop, exempt bool) {
		if node == nil {
			return
		}
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.ForStmt:
				walk(x.Init, inLoop, exempt)
				walk(x.Cond, true, exempt)
				walk(x.Post, true, exempt)
				walk(x.Body, true, exempt)
				return false
			case *ast.RangeStmt:
				walk(x.X, inLoop, exempt)
				walk(x.Body, true, exempt)
				return false
			case *ast.FuncLit:
				// A closure created by a cycle driver exists to run
				// inside the cycle: treat its body as loop context.
				walk(x.Body, true, exempt)
				return false
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					walk(r, inLoop, true)
				}
				return false
			case *ast.IfStmt:
				walk(x.Init, inLoop, exempt)
				walk(x.Cond, inLoop, exempt)
				walk(x.Body, inLoop, exempt || ifaceNotNilCond(n.pkg, x.Cond))
				walk(x.Else, inLoop, exempt)
				return false
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						for _, a := range x.Args {
							walk(a, inLoop, true)
						}
						return false
					}
				}
				for _, callee := range g.callees(info, x) {
					n.edges = append(n.edges, cgEdge{callee, inLoop, exempt})
				}
			}
			return true
		})
	}
	walk(n.decl.Body, false, false)
}

// callees resolves a call expression to the function objects it may
// invoke: one for a static call, every module implementation for an
// interface-method call, none for builtins and calls through plain
// function values.
func (g *CallGraph) callees(info *types.Info, call *ast.CallExpr) []*types.Func {
	fun := ast.Unparen(call.Fun)
	// A generic call f[T](...) or f[T1, T2](...) instantiates through
	// an index expression; the callee object sits under it. (An index
	// into a slice/map of funcs also parses this way — then the inner
	// expression resolves to a variable, not a function, and falls
	// through to nil below.)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, ix.X) {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			if types.IsInterface(sel.Recv()) {
				return g.implementations(m, sel.Recv().Underlying().(*types.Interface))
			}
			return []*types.Func{m}
		}
		// Package-qualified call (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// isFuncExpr reports whether e resolves to a function object — which
// makes an enclosing IndexExpr a generic instantiation rather than a
// container index.
func isFuncExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := info.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			_, isFn := sel.Obj().(*types.Func)
			return isFn
		}
		_, ok := info.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}

// implementations resolves an interface method to the corresponding
// concrete method of every module type implementing the interface.
func (g *CallGraph) implementations(m *types.Func, itf *types.Interface) []*types.Func {
	if out, ok := g.implCache[m]; ok {
		return out
	}
	var out []*types.Func
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, itf) && !types.Implements(ptr, itf) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if impl, ok := obj.(*types.Func); ok {
			out = append(out, impl)
		}
	}
	g.implCache[m] = out
	return out
}

// Lookup finds a declared function by package path, receiver type name
// (empty for plain functions) and name; nil if absent.
func (g *CallGraph) Lookup(pkgPath, recv, name string) *types.Func {
	for fn, n := range g.nodes {
		if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
			continue
		}
		if recvTypeName(n.decl) == recv {
			return fn
		}
	}
	return nil
}

// Hot computes the set of fully hot functions: everything reachable
// from a non-loop root, plus everything reachable from the loop bodies
// of a loop root. Loop roots themselves are NOT in the returned set —
// only their loop-context sites are hot, which callers must handle via
// the root's declaration (see hotpathalloc). Edges in exempt context
// do not propagate, and functions named in coldFuncs are neither
// marked nor traversed (trap-boundary recovery such as Flush/Reset
// runs at interrupt rate, not cycle rate).
func (g *CallGraph) Hot(roots []HotRoot, coldFuncs []string) map[*types.Func]bool {
	cold := map[string]bool{}
	for _, n := range coldFuncs {
		cold[n] = true
	}
	hot := map[*types.Func]bool{}
	var work []*types.Func
	seed := func(fn *types.Func) {
		if fn != nil && !hot[fn] && !cold[fn.Name()] {
			hot[fn] = true
			work = append(work, fn)
		}
	}
	for _, r := range roots {
		fn := g.Lookup(r.Pkg, r.Recv, r.Func)
		if fn == nil {
			continue
		}
		if !r.LoopOnly {
			seed(fn)
			continue
		}
		if n := g.nodes[fn]; n != nil {
			for _, e := range n.edges {
				if e.inLoop && !e.exempt {
					seed(e.callee)
				}
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		n := g.nodes[fn]
		if n == nil {
			continue // no body here (stdlib or interface method)
		}
		for _, e := range n.edges {
			if !e.exempt {
				seed(e.callee)
			}
		}
	}
	return hot
}
