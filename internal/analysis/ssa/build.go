package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Build constructs the SSA view of one function declaration. It
// returns nil for declarations without a body. The declaration must
// belong to a package whose *types.Info has Defs, Uses, and Types
// populated (the analysis loader always does).
func Build(decl *ast.FuncDecl, fset *token.FileSet, info *types.Info) *Func {
	if decl.Body == nil {
		return nil
	}
	fn := &Func{
		Decl:   decl,
		Fset:   fset,
		Info:   info,
		UseDef: map[*ast.Ident]*Def{},
		Defs:   map[*types.Var][]*Def{},
	}
	tracked := collectTracked(fn, decl)

	entry := buildCFG(fn)
	pruneAndOrder(fn, entry)
	buildDominators(fn)

	b := &builder{fn: fn, tracked: tracked}
	b.placePhis()
	b.rename()
	return fn
}

// collectTracked gathers the variables the builder promotes to SSA:
// the receiver, parameters, named results, and body-declared locals —
// minus anything address-taken, referenced inside a function literal
// (captured, or local to a closure whose CFG we do not build), or
// bound by a type switch guard. Returns the tracked set and fills
// fn.Vars in first-seen order.
func collectTracked(fn *Func, decl *ast.FuncDecl) map[*types.Var]bool {
	var seen []*types.Var
	candidate := map[*types.Var]bool{}
	drop := map[*types.Var]bool{}

	add := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := fn.Info.Defs[id].(*types.Var); ok && !candidate[v] {
			candidate[v] = true
			seen = append(seen, v)
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				add(name)
			}
		}
	}
	for _, f := range decl.Type.Params.List {
		for _, name := range f.Names {
			add(name)
		}
	}
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			for _, name := range f.Names {
				add(name)
			}
		}
	}

	funcLitDepth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			funcLitDepth++
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := fn.ObjOf(id); v != nil {
						drop[v] = true
					}
				}
				return true
			})
			funcLitDepth--
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v := fn.ObjOf(id); v != nil {
						drop[v] = true
					}
				}
			}
		case *ast.TypeSwitchStmt:
			// The guard variable is a distinct object per clause
			// (Implicits); none of them fit single-assignment form.
			if as, ok := n.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if v, ok := fn.Info.Defs[id].(*types.Var); ok {
						drop[v] = true
					}
				}
			}
			for _, cs := range n.Body.List {
				if v, ok := fn.Info.Implicits[cs].(*types.Var); ok {
					drop[v] = true
				}
			}
		case *ast.Ident:
			if funcLitDepth == 0 {
				add(n)
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)

	out := map[*types.Var]bool{}
	for _, v := range seen {
		if drop[v] {
			continue
		}
		out[v] = true
		fn.Vars = append(fn.Vars, v)
	}
	return out
}

// builder runs phi placement and the renaming walk.
type builder struct {
	fn      *Func
	tracked map[*types.Var]bool
	stacks  map[*types.Var][]*Def
}

func (b *builder) trackedObj(id *ast.Ident) *types.Var {
	v := b.fn.ObjOf(id)
	if v != nil && b.tracked[v] {
		return v
	}
	return nil
}

// forEachDef invokes f for every tracked-variable definition a block
// node performs. It mirrors exactly what the renamer treats as a
// definition.
func (b *builder) forEachDef(n ast.Node, f func(v *types.Var)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if v := b.trackedObj(id); v != nil {
					f(v)
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if v := b.trackedObj(name); v != nil {
					f(v)
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if v := b.trackedObj(id); v != nil {
				f(v)
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := b.trackedObj(id); v != nil {
					f(v)
				}
			}
		}
	}
}

// placePhis inserts phi definitions on the iterated dominance frontier
// of every variable with definitions in more than one block (the
// classic minimal-SSA placement).
func (b *builder) placePhis() {
	if len(b.fn.Blocks) == 0 {
		return
	}
	entry := b.fn.Blocks[0]
	defBlocks := map[*types.Var]map[*Block]bool{}
	record := func(v *types.Var, blk *Block) {
		m := defBlocks[v]
		if m == nil {
			m = map[*Block]bool{}
			defBlocks[v] = m
		}
		m[blk] = true
	}
	// Parameters, the receiver, and named results are defined in the
	// entry block.
	for _, v := range b.fn.Vars {
		if isSignatureVar(b.fn, v) {
			record(v, entry)
		}
	}
	for _, blk := range b.fn.Blocks {
		for _, n := range blk.Nodes {
			b.forEachDef(n, func(v *types.Var) { record(v, blk) })
		}
	}

	for _, v := range b.fn.Vars {
		blocks := defBlocks[v]
		hasPhi := map[*Block]bool{}
		var work []*Block
		for blk := range blocks {
			work = append(work, blk)
		}
		// Deterministic order is not needed for correctness here (the
		// resulting phi set is a fixed point), but keep the worklist
		// stable anyway so Def.Num assignment is reproducible.
		sortBlocks(work)
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range blk.frontier {
				if hasPhi[fr] {
					continue
				}
				hasPhi[fr] = true
				phi := &Def{
					Var:   v,
					Block: fr,
					Kind:  DefPhi,
					Args:  make([]*Def, len(fr.Preds)),
				}
				fr.Phis = append(fr.Phis, phi)
				if !blocks[fr] {
					blocks[fr] = true
					work = append(work, fr)
				}
			}
		}
	}
}

func isSignatureVar(fn *Func, v *types.Var) bool {
	pos := v.Pos()
	body := fn.Decl.Body
	return pos < body.Lbrace || pos > body.Rbrace
}

func sortBlocks(s []*Block) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Index < s[j-1].Index; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// rename walks the dominator tree assigning versions: every use meets
// the definition on top of its variable's stack, every definition
// pushes a new version.
func (b *builder) rename() {
	if len(b.fn.Blocks) == 0 {
		return
	}
	b.stacks = map[*types.Var][]*Def{}
	entry := b.fn.Blocks[0]

	// Seed the entry with signature definitions.
	var sigDefs []*types.Var
	push := func(d *Def) {
		d.Num = len(b.fn.Defs[d.Var]) + 1
		b.fn.Defs[d.Var] = append(b.fn.Defs[d.Var], d)
		b.stacks[d.Var] = append(b.stacks[d.Var], d)
	}
	sigDef := func(field *ast.Field, name *ast.Ident, kind DefKind) {
		v := b.trackedObj(name)
		if v == nil {
			return
		}
		push(&Def{Var: v, Block: entry, Kind: kind, Node: field})
		sigDefs = append(sigDefs, v)
	}
	if b.fn.Decl.Recv != nil {
		for _, f := range b.fn.Decl.Recv.List {
			for _, name := range f.Names {
				sigDef(f, name, DefParam)
			}
		}
	}
	for _, f := range b.fn.Decl.Type.Params.List {
		for _, name := range f.Names {
			sigDef(f, name, DefParam)
		}
	}
	if b.fn.Decl.Type.Results != nil {
		for _, f := range b.fn.Decl.Type.Results.List {
			for _, name := range f.Names {
				sigDef(f, name, DefZero)
			}
		}
	}

	b.renameBlock(entry)

	for _, v := range sigDefs {
		b.pop(v)
	}
}

func (b *builder) top(v *types.Var) *Def {
	s := b.stacks[v]
	if len(s) == 0 {
		return nil
	}
	return s[len(s)-1]
}

func (b *builder) pop(v *types.Var) {
	s := b.stacks[v]
	b.stacks[v] = s[:len(s)-1]
}

func (b *builder) renameBlock(blk *Block) {
	var pushed []*types.Var
	push := func(d *Def) {
		d.Num = len(b.fn.Defs[d.Var]) + 1
		b.fn.Defs[d.Var] = append(b.fn.Defs[d.Var], d)
		b.stacks[d.Var] = append(b.stacks[d.Var], d)
		pushed = append(pushed, d.Var)
	}

	for _, phi := range blk.Phis {
		push(phi)
	}
	for _, n := range blk.Nodes {
		b.renameNode(blk, n, push)
	}

	// Fill phi operands in the successors: this block's current
	// version is the value arriving along the edge.
	for _, s := range blk.Succs {
		for j, p := range s.Preds {
			if p != blk {
				continue
			}
			for _, phi := range s.Phis {
				phi.Args[j] = b.top(phi.Var)
			}
		}
	}

	for _, c := range blk.children {
		b.renameBlock(c)
	}
	for _, v := range pushed {
		b.pop(v)
	}
}

// renameNode processes one block node: uses resolve against the
// current stacks, then definitions push new versions. Evaluation order
// matches Go: all right-hand sides before any assignment takes effect.
func (b *builder) renameNode(blk *Block, n ast.Node, push func(*Def)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		plain := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
		for _, e := range n.Rhs {
			b.uses(e)
		}
		for _, l := range n.Lhs {
			if plain {
				b.lhsUses(l)
			} else {
				// Compound assignment (x += e) reads the target too.
				b.uses(l)
			}
		}
		for i, l := range n.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			v := b.trackedObj(id)
			if v == nil {
				continue
			}
			var rhs ast.Expr
			// Rhs is meaningful only for a plain 1:1 assignment; a
			// compound op's value is lhs⊕rhs, not rhs.
			if plain && len(n.Lhs) == len(n.Rhs) {
				rhs = n.Rhs[i]
			}
			push(&Def{Var: v, Block: blk, Kind: DefAssign, Rhs: rhs, Node: n})
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			b.uses(n)
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, e := range vs.Values {
				b.uses(e)
			}
			for i, name := range vs.Names {
				v := b.trackedObj(name)
				if v == nil {
					continue
				}
				kind := DefZero
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					kind = DefAssign
					rhs = vs.Values[i]
				} else if len(vs.Values) > 0 {
					kind = DefAssign // tuple init: rhs unknown per-name
				}
				push(&Def{Var: v, Block: blk, Kind: kind, Rhs: rhs, Node: vs})
			}
		}
	case *ast.IncDecStmt:
		b.uses(n.X)
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if v := b.trackedObj(id); v != nil {
				push(&Def{Var: v, Block: blk, Kind: DefAssign, Node: n})
			}
		}
	case *ast.RangeStmt:
		// Decomposed: only the range operand and the per-iteration
		// bindings live in the header; the body has its own blocks.
		b.uses(n.X)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			b.lhsUses(e)
		}
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := b.trackedObj(id); v != nil {
					push(&Def{Var: v, Block: blk, Kind: DefRange, Node: n})
				}
			}
		}
	default:
		b.uses(n)
	}
}

// uses records a reaching definition for every tracked-variable
// identifier under n, skipping function literals (their variables are
// untracked by construction).
func (b *builder) uses(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v := b.trackedObj(id)
		if v == nil {
			return true
		}
		// Only record genuine uses: defining occurrences are handled
		// by the def walk.
		if _, isDef := b.fn.Info.Defs[id]; isDef {
			return true
		}
		if d := b.top(v); d != nil {
			b.fn.UseDef[id] = d
		}
		return true
	})
}

// lhsUses records the uses embedded in an assignment target: the index
// and base of a[i], the receiver of x.f, the pointer of *p. A bare
// identifier target is a pure definition and records nothing.
func (b *builder) lhsUses(l ast.Expr) {
	if _, ok := ast.Unparen(l).(*ast.Ident); ok {
		return
	}
	b.uses(l)
}
