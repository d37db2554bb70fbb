package ssa

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (one file of package p) and returns the
// named function's SSA form plus its package context.
func parseFunc(t *testing.T, src, name string) (*Func, *token.FileSet, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Implicits: map[ast.Node]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != name {
			continue
		}
		f := Build(fd, fset, info)
		if f == nil {
			t.Fatalf("Build(%s) = nil", name)
		}
		return f, fset, info
	}
	t.Fatalf("function %s not found", name)
	return nil, nil, nil
}

func varNamed(t *testing.T, f *Func, name string) *types.Var {
	t.Helper()
	for _, v := range f.Vars {
		if v.Name() == name {
			return v
		}
	}
	t.Fatalf("variable %s not tracked; tracked: %v", name, f.Vars)
	return nil
}

// usesOf returns the identifiers whose reaching definition is d.
func usesOf(f *Func, d *Def) []*ast.Ident {
	var out []*ast.Ident
	for id, dd := range f.UseDef {
		if dd == d {
			out = append(out, id)
		}
	}
	return out
}

func TestStraightLineDefUse(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(a int) int {
	x := a + 1
	y := x * 2
	return y
}`, "f")
	if f.Approx {
		t.Fatal("straight-line function marked approximate")
	}
	x := varNamed(t, f, "x")
	if got := len(f.Defs[x]); got != 1 {
		t.Fatalf("defs of x = %d, want 1", got)
	}
	d := f.Defs[x][0]
	if d.Kind != DefAssign || d.Rhs == nil {
		t.Fatalf("x def: kind=%v rhs=%v", d.Kind, d.Rhs)
	}
	uses := usesOf(f, d)
	if len(uses) != 1 || uses[0].Name != "x" {
		t.Fatalf("uses of x's def = %v, want the one use in y := x*2", uses)
	}
	a := varNamed(t, f, "a")
	if f.Defs[a][0].Kind != DefParam {
		t.Fatalf("a def kind = %v, want param", f.Defs[a][0].Kind)
	}
}

func TestIfPhiPlacement(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	x := varNamed(t, f, "x")
	defs := f.Defs[x]
	var phi *Def
	for _, d := range defs {
		if d.Kind == DefPhi {
			phi = d
		}
	}
	if phi == nil {
		t.Fatalf("no phi for x; defs: %d", len(defs))
	}
	if len(phi.Args) != 2 {
		t.Fatalf("phi arity = %d, want 2", len(phi.Args))
	}
	for i, a := range phi.Args {
		if a == nil {
			t.Fatalf("phi arg %d is nil", i)
		}
		if a.Kind != DefAssign {
			t.Fatalf("phi arg %d kind = %v, want assign", i, a.Kind)
		}
	}
	if phi.Args[0] == phi.Args[1] {
		t.Fatal("phi merges the same def on both edges")
	}
	// The return's use of x must resolve to the phi.
	found := false
	for id, d := range f.UseDef {
		if id.Name == "x" && d == phi {
			found = true
		}
	}
	if !found {
		t.Fatal("return use of x does not resolve to the phi")
	}
}

func TestLoopPhi(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	s := varNamed(t, f, "s")
	i := varNamed(t, f, "i")
	phis := 0
	for _, d := range f.Defs[s] {
		if d.Kind == DefPhi {
			phis++
		}
	}
	if phis == 0 {
		t.Fatal("loop-carried s has no phi")
	}
	// i++ both uses and redefines i.
	sawIncDef := false
	for _, d := range f.Defs[i] {
		if _, ok := d.Node.(*ast.IncDecStmt); ok {
			sawIncDef = true
		}
	}
	if !sawIncDef {
		t.Fatal("i++ did not create a definition")
	}
}

func TestRangeAndSwitch(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(xs []int, mode int) int {
	total := 0
	for _, v := range xs {
		switch mode {
		case 0:
			total += v
		case 1:
			total -= v
		default:
			total = 0
		}
	}
	return total
}`, "f")
	if f.Approx {
		t.Fatal("range+switch marked approximate")
	}
	v := varNamed(t, f, "v")
	var rangeDef *Def
	for _, d := range f.Defs[v] {
		if d.Kind == DefRange {
			rangeDef = d
		}
	}
	if rangeDef == nil {
		t.Fatal("range binding produced no DefRange")
	}
	if got := len(usesOf(f, rangeDef)); got != 2 {
		t.Fatalf("uses of range v = %d, want 2", got)
	}
}

func TestUntrackedVariables(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f() (int, int) {
	addr := 1
	p := &addr
	captured := 2
	g := func() { captured++ }
	g()
	return *p, captured
}`, "f")
	for _, v := range f.Vars {
		if v.Name() == "addr" {
			t.Fatal("address-taken variable tracked")
		}
		if v.Name() == "captured" {
			t.Fatal("closure-captured variable tracked")
		}
	}
	// Uses of untracked vars must have no UseDef entry.
	for id := range f.UseDef {
		if id.Name == "addr" || id.Name == "captured" {
			t.Fatalf("untracked %s has a reaching definition", id.Name)
		}
	}
}

func TestGotoApprox(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(n int) int {
	x := 0
loop:
	x++
	if x < n {
		goto loop
	}
	return x
}`, "f")
	if !f.Approx {
		t.Fatal("goto did not mark function approximate")
	}
}

// TestDominates checks the dominator tree of an if/else diamond: the
// entry dominates every block, and it is the immediate dominator of
// both arms and of the join, so neither arm dominates the other.
func TestDominates(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	entry := f.Blocks[0]
	if entry.Idom != nil {
		t.Fatalf("entry has an immediate dominator (block %d)", entry.Idom.Index)
	}
	for _, b := range f.Blocks[1:] {
		d := b.Idom
		for d != nil && d != entry {
			d = d.Idom
		}
		if d != entry {
			t.Fatalf("entry does not dominate block %d", b.Index)
		}
	}
	var arms, joins int
	for _, b := range f.Blocks {
		switch {
		case len(b.Preds) == 1 && b.Preds[0] == entry:
			arms++
		case len(b.Preds) == 2:
			joins++
		default:
			continue
		}
		if b.Idom != entry {
			t.Fatalf("block %d: immediate dominator is block %d, want the entry", b.Index, b.Idom.Index)
		}
	}
	if arms != 2 || joins != 1 {
		t.Fatalf("diamond has %d arms and %d joins, want 2 and 1", arms, joins)
	}
}

func TestLabeledBreak(t *testing.T) {
	f, _, _ := parseFunc(t, `package p
func f(xs [][]int) int {
	total := 0
outer:
	for _, row := range xs {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			total += v
		}
	}
	return total
}`, "f")
	if f.Approx {
		t.Fatal("labeled break marked function approximate")
	}
	total := varNamed(t, f, "total")
	phis := 0
	for _, d := range f.Defs[total] {
		if d.Kind == DefPhi {
			phis++
		}
	}
	if phis == 0 {
		t.Fatal("total crosses loop joins with no phi")
	}
}
