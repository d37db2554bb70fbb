package analysis

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ruu/internal/analysis/ssa"
)

// TestLoadDirSkipsBuildTagExcluded: a file behind an unsatisfied build
// tag must not reach the type checker — the excluded file here
// redeclares A, which would be a hard typecheck error if loaded.
func TestLoadDirSkipsBuildTagExcluded(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go": "package fix\n\nfunc A() int { return 1 }\n",
		"b.go": "//go:build sometag_never_set\n\npackage fix\n\nfunc A() int { return 2 }\n",
	})
	pkg := loadTemp(t, dir, "fix")
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (b.go is excluded by its tag)", len(pkg.Files))
	}
}

// TestLoadDirKeepsSatisfiedConstraint: the host GOOS tag and release
// tags are satisfied, so the constrained file loads.
func TestLoadDirKeepsSatisfiedConstraint(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go": "package fix\n\nfunc A() int { return 1 }\n",
		"b.go": fmt.Sprintf("//go:build %s && go1.18\n\npackage fix\n\nfunc B() int { return 2 }\n", runtime.GOOS),
	})
	pkg := loadTemp(t, dir, "fix")
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (b.go's constraint is satisfied)", len(pkg.Files))
	}
}

// TestLoadDirSkipsTestFiles: _test.go files never load — the test file
// here would redeclare A.
func TestLoadDirSkipsTestFiles(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go":      "package fix\n\nfunc A() int { return 1 }\n",
		"a_test.go": "package fix\n\nfunc A() int { return 2 }\n",
	})
	pkg := loadTemp(t, dir, "fix")
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (_test.go is excluded)", len(pkg.Files))
	}
}

// TestLoadDirGeneratedOnly: a package holding nothing but generated
// code is an ordinary package to the loader — passes still see it and
// positions resolve.
func TestLoadDirGeneratedOnly(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"gen.go": "// Code generated by fixturegen. DO NOT EDIT.\n\npackage fix\n\nfunc Gen() int { return 3 }\n",
	})
	pkg := loadTemp(t, dir, "fix")
	decls := funcDecls(pkg)
	if len(decls) != 1 || decls[0].Name.Name != "Gen" {
		t.Errorf("generated-only package: funcDecls = %v, want [Gen]", decls)
	}
	if pos := pkg.Pos(decls[0]); pos.Line != 5 {
		t.Errorf("Gen at line %d, want 5", pos.Line)
	}
}

// TestLoadDirAllExcluded: a directory whose every file is constrained
// away is a loud error, not a silent empty package.
func TestLoadDirAllExcluded(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go": "//go:build sometag_never_set\n\npackage fix\n\nfunc A() int { return 1 }\n",
	})
	_, err := LoadDir(dir, "fix")
	if err == nil || !strings.Contains(err.Error(), "excluded by its build constraint") {
		t.Errorf("LoadDir over an all-excluded dir: err = %v, want build-constraint error", err)
	}
}

// TestLoadDirMissingImport: an import that is neither local nor in the
// standard library has no export data, so LoadDir returns an error
// naming it instead of panicking or type-checking against nothing.
func TestLoadDirMissingImport(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go": "package fix\n\nimport _ \"nosuch/pkg\"\n\nimport \"fmt\"\n\nvar _ = fmt.Sprint\n",
	})
	pkg, err := LoadDir(dir, "fix")
	if err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Errorf("LoadDir over a missing import: pkg = %v, err = %v, want an error naming nosuch/pkg", pkg, err)
	}
}

// TestLoadDirMalformedConstraint: an unparsable //go:build line does
// not exclude the file (the type checker owns the diagnostic).
func TestLoadDirMalformedConstraint(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{
		"a.go": "//go:build &&(\n\npackage fix\n\nfunc A() int { return 1 }\n",
	})
	pkg := loadTemp(t, dir, "fix")
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (malformed constraint keeps the file)", len(pkg.Files))
	}
}

// genericFixture is a package exercising every generic shape the loader
// and the downstream layers must handle: a type-parameterized function,
// a generic type with a pointer-receiver method, single- and multi-arg
// explicit instantiations, and an inferred call.
const genericFixture = `package fix

type Box[K comparable, V any] struct {
	k K
	v V
}

func (b *Box[K, V]) Key() K { return b.k }

func Map[T any, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

func Id[T any](x T) T { return x }

func Use() int {
	b := &Box[string, int]{k: "r1", v: 7}
	doubled := Map[int, int]([]int{1, 2}, func(x int) int { return x * 2 })
	_ = Id("inferred")
	return len(doubled) + len(b.Key())
}

func useTable(fs []func() int) int {
	return fs[0]()
}
`

// TestLoadDirGenerics: type-parameterized code must load and type-check
// with instantiation data populated — Instances is what lets the call
// graph and SSA layers see through f[T](...) syntax.
func TestLoadDirGenerics(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{"g.go": genericFixture})
	pkg := loadTemp(t, dir, "fix")
	if len(pkg.Info.Instances) == 0 {
		t.Error("Info.Instances is empty; loader does not record generic instantiations")
	}
	names := map[string]bool{}
	for id := range pkg.Info.Instances {
		names[id.Name] = true
	}
	for _, want := range []string{"Box", "Map", "Id"} {
		if !names[want] {
			t.Errorf("no instantiation recorded for %s (got %v)", want, names)
		}
	}
}

// TestRecvTypeNameGeneric: a method on Box[K, V] has an IndexListExpr
// receiver; recvTypeName must still report the base type name, or every
// receiver-keyed rule (engine fingerprint, mutator table) goes blind on
// generic types.
func TestRecvTypeNameGeneric(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{"g.go": genericFixture})
	pkg := loadTemp(t, dir, "fix")
	found := false
	for _, fd := range funcDecls(pkg) {
		if fd.Name.Name != "Key" {
			continue
		}
		found = true
		if got := recvTypeName(fd); got != "Box" {
			t.Errorf("recvTypeName((*Box[K, V]).Key) = %q, want \"Box\"", got)
		}
	}
	if !found {
		t.Fatal("fixture method Key not found")
	}
}

// TestCallGraphGenericCalls: explicit instantiations Map[int, int](...)
// and inferred calls Id(...) must resolve to static edges, while an
// index into a slice of funcs — which parses identically to a generic
// call — must not fabricate one.
func TestCallGraphGenericCalls(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{"g.go": genericFixture})
	pkg := loadTemp(t, dir, "fix")
	g := BuildCallGraph([]*Package{pkg})

	use := g.Lookup("fix", "", "Use")
	if use == nil {
		t.Fatal("Lookup did not find Use")
	}
	callees := map[string]bool{}
	for _, e := range g.nodes[use].edges {
		callees[e.callee.Name()] = true
	}
	for _, want := range []string{"Map", "Id", "Key"} {
		if !callees[want] {
			t.Errorf("Use -> %s edge missing through generic call syntax (got %v)", want, callees)
		}
	}

	table := g.Lookup("fix", "", "useTable")
	if table == nil {
		t.Fatal("Lookup did not find useTable")
	}
	if n := len(g.nodes[table].edges); n != 0 {
		t.Errorf("fs[0]() produced %d static edges, want 0 (slice index, not instantiation)", n)
	}
}

// TestSSAGenericFunc: the SSA builder must not panic on generic decls
// and must produce usable def-use chains inside them.
func TestSSAGenericFunc(t *testing.T) {
	dir := writeFixturePkg(t, map[string]string{"g.go": genericFixture})
	pkg := loadTemp(t, dir, "fix")
	snap := NewSnapshot([]*Package{pkg})
	prog := snap.ValueFlow()
	built := 0
	for _, fd := range funcDecls(pkg) {
		fn := prog.FuncOf(ssa.Source{Decl: fd, Fset: pkg.Fset, Info: pkg.Info})
		if fn == nil {
			t.Errorf("SSA build failed for %s", fd.Name.Name)
			continue
		}
		built++
	}
	if built == 0 {
		t.Fatal("no functions built")
	}
}
