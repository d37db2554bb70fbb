package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Load parses and type-checks every non-test package of the module
// rooted at dir (the directory holding go.mod). Only the standard
// library and the module's own packages may be imported — by design the
// module carries no external dependencies, and the loader enforces it:
// every import outside the module must have standard-library export
// data (see newLoader), or Load fails naming it.
//
// Directories named "testdata", hidden directories, and directories
// without non-test Go files are skipped, as are files whose //go:build
// constraint is not satisfied for this host (see fileExcluded).
func Load(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirOf := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		dirOf[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}

	l, err := newLoader(root, dirOf)
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: modPath, Dir: root}
	for _, p := range l.paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// LoadDir parses and type-checks a single standalone directory of Go
// files (test fixtures) under the given import path. Imports resolve
// against the standard library only.
func LoadDir(dir, importPath string) (*Package, error) {
	l, err := newLoader(dir, map[string]string{importPath: dir})
	if err != nil {
		return nil, err
	}
	return l.load(importPath)
}

type loader struct {
	fset    *token.FileSet
	std     types.Importer
	paths   []string               // module import paths, sorted
	files   map[string][]*ast.File // module import path → parsed files
	pkgs    map[string]*Package
	loading map[string]bool
}

// newLoader parses every package in dirOf, in import-path order so
// positions are the same run to run, and resolves the imports that fall
// outside dirOf from the compiler's export data. One `go list -export
// -deps` over exactly those imports, run in workDir, builds (or finds in
// the build cache) their export files. Type-checking the standard
// library from source instead made loading this module about nine
// times slower (3.4 s against 0.38 s on a 2-vCPU host). An import that
// go list cannot export is an error naming it.
func newLoader(workDir string, dirOf map[string]string) (*loader, error) {
	l := &loader{
		fset:    token.NewFileSet(),
		files:   map[string][]*ast.File{},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	for p := range dirOf {
		l.paths = append(l.paths, p)
	}
	sort.Strings(l.paths)
	external := map[string]bool{}
	for _, p := range l.paths {
		files, err := parseDir(l.fset, dirOf[p])
		if err != nil {
			return nil, err
		}
		l.files[p] = files
		for _, f := range files {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return nil, err
				}
				if _, local := dirOf[imp]; !local && imp != "unsafe" {
					external[imp] = true
				}
			}
		}
	}
	exports, err := exportFiles(workDir, external)
	if err != nil {
		return nil, err
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for import %q", path)
		}
		return os.Open(file)
	})
	return l, nil
}

// exportFiles maps each of the imports, and everything they depend
// on, to its export-data file, as `go list -export -deps` reports it.
func exportFiles(workDir string, imports map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(imports) == 0 {
		return exports, nil
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for imp := range imports {
		args = append(args, imp)
	}
	sort.Strings(args[5:])
	cmd := exec.Command("go", args...)
	cmd.Dir = workDir
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return nil, fmt.Errorf("go list -export: %s", bytes.TrimSpace(exit.Stderr))
	} else if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	for _, imp := range args[5:] {
		if exports[imp] == "" {
			return nil, fmt.Errorf("import %q: go list -export reports no export data", imp)
		}
	}
	return exports, nil
}

// Import implements types.Importer: module-local packages are
// type-checked from source recursively, everything else is read from
// the export data newLoader located.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.files[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files := l.files[path]
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		// Instances resolves uses of generic functions and methods to
		// their type arguments; without it the call graph and SSA
		// builder would see instantiation sites as bare generic
		// objects and could neither resolve nor version them.
		Instances: map[*ast.Ident]types.Instance{},
		Implicits: map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses a directory's non-test Go files that its build
// constraints admit, sorted by name, and checks they form one package.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if fileExcluded(f) {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: multiple packages in one directory (%s and %s)", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: every Go file is excluded by its build constraint", dir)
	}
	return files, nil
}

// fileExcluded reports whether a //go:build constraint above the
// package clause excludes the file for this host. The loader evaluates
// constraints the way `go build` would with no extra tags: the host's
// GOOS and GOARCH, the gc compiler, and every go1.N release tag are
// satisfied; any other tag (ignore, integration, a foreign GOOS) is
// not. Legacy // +build lines without a //go:build line are not
// interpreted — the repo predates none of its files, so every
// constrained file carries the modern form.
func fileExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false // malformed constraint: let the type checker complain
			}
			return !expr.Eval(buildTagSatisfied)
		}
	}
	return false
}

// buildTagSatisfied is the loader's default tag set.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	// Release tags: the export data comes from the go command's own
	// toolchain, so every go1.N it defines is satisfied.
	return strings.HasPrefix(tag, "go1.")
}

// goFileNames lists a directory's non-test Go files, sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
