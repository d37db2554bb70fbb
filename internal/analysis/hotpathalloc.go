package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The hotpathalloc pass statically checks the simulator's noalloc
// claim: once a run is set up, simulating a cycle must not allocate.
// The ROADMAP's "hardware speed under heavy traffic" goal dies by a
// thousand mallocs otherwise, and the observability layer was designed
// around a zero-allocation nil-probe fast path (docs/OBSERVABILITY.md).
//
// The pass computes the set of functions reachable from the machine's
// per-cycle step — the loop body of (*machine.Machine).Run, followed
// through the module call graph including interface dispatch to every
// engine (see callgraph.go) — and flags, inside hot code:
//
//   - heap-escaping composite literals (&T{}, slice and map literals),
//     new(T) and make(...);
//   - implicit interface boxing at call sites and assignments;
//   - function literals declared inside loops (a fresh closure per
//     iteration);
//   - calls into package fmt and non-constant string concatenation;
//   - append to a slice that is front-popped elsewhere (x = x[1:]),
//     which grows the backing array without bound — use a head index
//     or [:0] reuse instead.
//
// Recognized as exempt, because they are off the per-cycle fast path:
// panic arguments; expressions inside return statements (error and
// trap construction ends or suspends the run); composite literals of
// the cold trap types (exec.Trap, memsys.Fault); blocks guarded by an
// interface non-nil check (optional observers: if w != nil { ... });
// and functions whose first statement is an interface nil-check return
// (the nil-probe fast path, e.g. issue.Observe).
//
// The static verdict is backed dynamically: TestCycleZeroAllocs (root
// package, alloc_test.go) proves with testing.AllocsPerRun that a
// simulated cycle performs zero allocations with a nil probe.

// HotPathConfig configures NewHotPathAlloc.
type HotPathConfig struct {
	// Roots seed hot-path reachability.
	Roots []HotRoot
	// Scope limits findings to these package prefixes (reachable code
	// outside the scope, e.g. observers, is not reported).
	Scope []string
	// ColdTypes are type names whose composite literals are exempt
	// (trap/fault construction ends or interrupts the run).
	ColdTypes []string
	// ColdFuncs are function names hotness neither marks nor
	// traverses (Flush/Reset: trap-boundary recovery runs at
	// interrupt rate, not cycle rate).
	ColdFuncs []string
}

// NewHotPathAlloc returns the hotpathalloc pass.
func NewHotPathAlloc(cfg HotPathConfig) *Pass {
	cold := map[string]bool{}
	for _, t := range cfg.ColdTypes {
		cold[t] = true
	}
	var graph *CallGraph
	var hot map[*types.Func]bool
	loopRoots := map[*types.Func]bool{}
	return &Pass{
		Name: "hotpathalloc",
		Doc:  "no heap allocation, boxing, or fmt on the per-cycle hot path",
		Init: func(snap *Snapshot) {
			graph = snap.Graph()
			hot = graph.Hot(cfg.Roots, cfg.ColdFuncs)
			for _, r := range cfg.Roots {
				if r.LoopOnly {
					if fn := graph.Lookup(r.Pkg, r.Recv, r.Func); fn != nil {
						loopRoots[fn] = true
					}
				}
			}
		},
		Run: func(pkg *Package) []Finding {
			if graph == nil || !inScope(pkg.Path, cfg.Scope) {
				return nil
			}
			var out []Finding
			popped := frontPoppedSlices(pkg)
			for _, fd := range funcDecls(pkg) {
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || fd.Body == nil {
					continue
				}
				fullyHot, loopRoot := hot[fn], loopRoots[fn]
				if !fullyHot && !loopRoot {
					continue
				}
				if nilFastPath(pkg, fd) {
					continue
				}
				s := &allocScanner{
					pkg:         pkg,
					cold:        cold,
					popped:      popped,
					requireLoop: !fullyHot,
					add: func(n ast.Node, format string, args ...any) {
						out = append(out, Finding{
							Pass:    "hotpathalloc",
							Pos:     pkg.Pos(n),
							Message: fmt.Sprintf(format, args...),
						})
					},
				}
				s.walk(fd.Body, false, false)
			}
			return out
		},
	}
}

// allocScanner walks one hot function body reporting allocation sites.
type allocScanner struct {
	pkg  *Package
	cold map[string]bool
	// popped holds slice variables/fields that are front-popped
	// (x = x[1:]) somewhere in the package.
	popped map[types.Object]bool
	// requireLoop restricts reporting to loop/closure context (loop
	// roots: the straight-line setup code of the driver is cold).
	requireLoop bool
	add         func(n ast.Node, format string, args ...any)
}

// walk visits n. inLoop tracks loop/closure context; exempt marks
// subtrees off the fast path (returns, panics, observer guards).
func (s *allocScanner) walk(n ast.Node, inLoop, exempt bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ForStmt:
			s.walk(x.Init, inLoop, exempt)
			s.walk(x.Cond, true, exempt)
			s.walk(x.Post, true, exempt)
			s.walk(x.Body, true, exempt)
			return false
		case *ast.RangeStmt:
			s.walk(x.X, inLoop, exempt)
			s.walk(x.Body, true, exempt)
			return false
		case *ast.FuncLit:
			if inLoop && s.report(inLoop, exempt) {
				s.add(x, "function literal declared inside a loop allocates a closure per iteration; hoist it out of the loop")
			}
			s.walk(x.Body, true, exempt)
			return false
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				s.walk(r, inLoop, true)
			}
			return false
		case *ast.IfStmt:
			s.walk(x.Init, inLoop, exempt)
			s.walk(x.Cond, inLoop, exempt)
			s.walk(x.Body, inLoop, exempt || ifaceNotNilCond(s.pkg, x.Cond))
			s.walk(x.Else, inLoop, exempt)
			return false
		case *ast.AssignStmt:
			s.checkAssign(x, inLoop, exempt)
			for _, e := range append(x.Lhs[:len(x.Lhs):len(x.Lhs)], x.Rhs...) {
				s.walk(e, inLoop, exempt)
			}
			return false
		case *ast.CallExpr:
			return s.checkCall(x, inLoop, exempt)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					if s.report(inLoop, exempt) && !s.coldLit(cl) {
						s.add(x, "&%s literal escapes to the heap on the per-cycle path", s.litName(cl))
					}
					return false
				}
			}
		case *ast.CompositeLit:
			switch s.litType(x).Underlying().(type) {
			case *types.Slice:
				if s.report(inLoop, exempt) && !s.coldLit(x) {
					s.add(x, "slice literal allocates on the per-cycle path")
				}
			case *types.Map:
				if s.report(inLoop, exempt) {
					s.add(x, "map literal allocates on the per-cycle path")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && s.report(inLoop, exempt) && s.nonConstString(x) {
				s.add(x, "string concatenation allocates on the per-cycle path")
			}
		}
		return true
	})
}

// report decides whether a site in the current context is reportable.
func (s *allocScanner) report(inLoop, exempt bool) bool {
	return !exempt && (inLoop || !s.requireLoop)
}

// checkCall handles one call expression: fmt calls, builtin
// allocators, panic exemption, and interface boxing of arguments.
// It returns whether Inspect should descend into the call.
func (s *allocScanner) checkCall(call *ast.CallExpr, inLoop, exempt bool) bool {
	info := s.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch info.Uses[id].(type) {
		case *types.Builtin:
			switch id.Name {
			case "panic":
				for _, a := range call.Args {
					s.walk(a, inLoop, true)
				}
				return false
			case "make":
				if s.report(inLoop, exempt) {
					s.add(call, "make allocates on the per-cycle path")
				}
			case "new":
				if s.report(inLoop, exempt) && !s.cold[s.typeNameOf(info.Types[call.Args[0]].Type)] {
					s.add(call, "new allocates on the per-cycle path")
				}
			}
		}
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if s.report(inLoop, exempt) {
			s.add(call, "fmt.%s allocates on the per-cycle path", fn.Name())
		}
	}
	s.checkBoxing(call, inLoop, exempt)
	for _, a := range call.Args {
		s.walk(a, inLoop, exempt)
	}
	s.walk(call.Fun, inLoop, exempt)
	return false
}

// checkBoxing flags call arguments implicitly converted to interface
// parameters where the conversion must heap-allocate.
func (s *allocScanner) checkBoxing(call *ast.CallExpr, inLoop, exempt bool) {
	if !s.report(inLoop, exempt) {
		return
	}
	info := s.pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if s.boxes(arg) {
			s.add(arg, "argument boxes %s into %s (heap allocation) on the per-cycle path",
				info.Types[arg].Type, pt)
		}
	}
}

// checkAssign flags interface boxing on assignment and unbounded
// growth of front-popped slices.
func (s *allocScanner) checkAssign(as *ast.AssignStmt, inLoop, exempt bool) {
	if !s.report(inLoop, exempt) {
		return
	}
	info := s.pkg.Info
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			lt, ok := info.Types[lhs]
			if !ok || lt.Type == nil || !types.IsInterface(lt.Type) {
				continue
			}
			if s.boxes(as.Rhs[i]) {
				s.add(as.Rhs[i], "assignment boxes %s into %s (heap allocation) on the per-cycle path",
					info.Types[as.Rhs[i]].Type, lt.Type)
			}
		}
	}
	// x = append(x, ...) where x is front-popped elsewhere.
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return
	}
	obj := sliceRefObj(info, as.Lhs[0])
	if obj != nil && s.popped[obj] && obj == sliceRefObj(info, call.Args[0]) {
		s.add(as, "append to %s, which is front-popped elsewhere (x = x[1:]): the backing array grows without bound; use a head index or [:0] compaction", obj.Name())
	}
}

// nonConstString reports whether be is a string concatenation with at
// least one non-constant operand (constant folding costs nothing).
func (s *allocScanner) nonConstString(be *ast.BinaryExpr) bool {
	tv, ok := s.pkg.Info.Types[be]
	return ok && tv.Type != nil && isString(tv.Type) && tv.Value == nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether converting expr to an interface type must
// allocate: the expression is a typed non-interface value that is not
// pointer-shaped and not a compile-time constant (the compiler places
// constants in static interface data).
func (s *allocScanner) boxes(expr ast.Expr) bool {
	tv, ok := s.pkg.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface data word
	case *types.Basic:
		if t.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// ifaceNotNilCond reports whether cond is an interface non-nil check
// (w != nil with w interface-typed): its block is an optional-observer
// slow path, off the nil-probe noalloc claim.
func ifaceNotNilCond(pkg *Package, cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	return ifaceNilOperands(pkg, be)
}

// ifaceNilOperands reports whether one side of be is nil and the other
// an interface-typed expression.
func ifaceNilOperands(pkg *Package, be *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[e]
		return ok && tv.IsNil()
	}
	isIface := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[e]
		return ok && tv.Type != nil && types.IsInterface(tv.Type)
	}
	return (isNil(be.X) && isIface(be.Y)) || (isNil(be.Y) && isIface(be.X))
}

// nilFastPath reports whether fd opens with the nil-probe fast path:
// "if x == nil { return ... }" with x interface-typed. Such functions
// are no-ops on the hot path; their bodies only run with an observer
// attached, which is outside the noalloc claim.
func nilFastPath(pkg *Package, fd *ast.FuncDecl) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || len(ifs.Body.List) == 0 {
		return false
	}
	if _, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	return ifaceNilOperands(pkg, be)
}

// litType resolves a composite literal's type ("" on failure).
func (s *allocScanner) litType(cl *ast.CompositeLit) types.Type {
	if tv, ok := s.pkg.Info.Types[cl]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func (s *allocScanner) litName(cl *ast.CompositeLit) string {
	if n := s.typeNameOf(s.litType(cl)); n != "" {
		return n
	}
	return "composite"
}

// coldLit reports whether cl constructs a cold type (trap/fault).
func (s *allocScanner) coldLit(cl *ast.CompositeLit) bool {
	return s.cold[s.typeNameOf(s.litType(cl))]
}

// typeNameOf returns the bare named-type name behind t ("" if none),
// dereferencing one pointer level.
func (s *allocScanner) typeNameOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeFunc resolves a call's static callee function object, nil for
// builtins, function values and interface calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj().(*types.Func)
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// frontPoppedSlices collects, package-wide, the slice variables and
// struct fields assigned a front-pop of themselves (x = x[1:], or any
// non-zero low bound). Appending to such a slice never reuses the
// popped prefix, so the backing array grows with traffic.
func frontPoppedSlices(pkg *Package) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
				return true
			}
			se, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
			if !ok || se.Low == nil || isZeroLit(se.Low) {
				return true
			}
			obj := sliceRefObj(pkg.Info, as.Lhs[0])
			if obj != nil && obj == sliceRefObj(pkg.Info, se.X) {
				out[obj] = true
			}
			return true
		})
	}
	return out
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}

// sliceRefObj resolves the variable or struct-field object an
// expression refers to (x, or recv.x), nil for anything else.
func sliceRefObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}
