// Package analysis is the repository's static-analysis framework: a
// small, dependency-free (go/ast + go/parser + go/types only) driver
// plus the repo-specific passes that turn the simulator's correctness
// conventions into machine-checked invariants.
//
// The paper's central claim — the RUU provides out-of-order issue *and*
// precise interrupts from a single structure — survives in this
// reproduction only while two disciplines hold: architectural state is
// mutated exclusively on audited commit/writeback paths, and every run
// is bit-for-bit reproducible. The runtime tagunit SelfCheck verifies the
// first at simulation time for the configurations that happen to run;
// the passes here verify both at the source level for every engine and
// every configuration, so the disciplines scale with the codebase
// instead of with reviewer attention. See docs/ANALYSIS.md.
//
// Eleven passes ship (see their files for details, and docs/ANALYSIS.md
// for the catalog). Three are syntactic invariant checks over the
// simulation core:
//
//   - simdeterminism: no wall-clock time, global math/rand, goroutines,
//     channel selects, or order-sensitive map iteration in simulation
//     packages.
//   - probeemit: engine code that retires or squashes instructions must
//     emit the matching obs lifecycle event.
//   - precisestate: architectural register-file and memory writes only
//     from allowlisted commit/writeback functions.
//
// Three more run on a lightweight dataflow layer (a module-wide
// RTA-style call graph, see callgraph.go):
//
//   - hotpathalloc: no heap allocation, interface boxing, or fmt calls
//     in code reachable from the machine's per-cycle step.
//   - exhaustive: switches over the repo's uint8 enum types cover every
//     member or carry an explicit default.
//   - paperconst: model constants match internal/isa/paperconst.go; no
//     drifted or restated magic numbers.
//
// Four cover the concurrent service layer (internal/sched,
// internal/server, internal/obs, internal/store, cmd/ruuserve):
//
//   - mutexguard: inferred and annotated guarded-by relations for
//     mutex-bearing structs; no unguarded access, lock copying, or
//     unlock-without-lock.
//   - ctxflow: context.Context threads request paths (first parameter,
//     never a struct field, no context.Background below the handler
//     boundary, no ctx-less blocking selects).
//   - goroutineleak: every go statement has a visible termination path
//     and no send without a guaranteed receiver.
//   - httpcontract: handlers write exactly one status per path, set
//     Content-Type before the body, map client cancellation to 499,
//     and route errors through the shared JSON error writer.
//
// The eleventh, "suppression", lints the linter's own suppression
// markers (see suppress.go).
//
// A finding on a line carrying (or immediately preceded by) a comment
// of the form "//ruulint:ok <pass> <justification>" is suppressed for
// the named pass only; use sparingly and justify the suppression in
// the comment. Bare or misspelled markers suppress nothing and are
// findings of the "suppression" meta-pass (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pass is the name of the pass that produced the finding.
	Pass string
	// Pos is the source position of the offending node.
	Pos token.Position
	// Message describes the violation and the expected fix.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Message)
}

// Pass is one analysis: a name, a one-line description, and a Run
// function producing findings for a single type-checked package.
// A pass that needs whole-module context (e.g. a cross-package call
// graph) may set Init, which Check calls once with the shared snapshot
// before any Run; passes that need the call graph take it from
// Snapshot.Graph so it is built once per load, not once per pass.
type Pass struct {
	Name string
	Doc  string
	Init func(*Snapshot)
	Run  func(*Package) []Finding
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path ("ruu/internal/machine").
	Path string
	// Fset positions all files of the enclosing load.
	Fset *token.FileSet
	// Files are the package's non-test source files, sorted by name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object maps.
	Info *types.Info
}

// Pos resolves a node's source position.
func (p *Package) Pos(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

// Module is a loaded module: its path, root directory, and packages.
type Module struct {
	// Path is the module path from go.mod ("ruu").
	Path string
	// Dir is the absolute module root.
	Dir string
	// Packages are the module's packages sorted by import path.
	Packages []*Package
}

// Check runs the passes over the packages, drops suppressed findings,
// and returns the rest sorted by position. It wraps the packages in a
// fresh Snapshot; callers that run several pass sets (or render several
// output formats) over one load should build the Snapshot themselves
// and use CheckSnapshot so the call graph is shared too.
func Check(pkgs []*Package, passes []*Pass) []Finding {
	findings, _ := CheckSnapshot(NewSnapshot(pkgs), passes)
	return findings
}

// PassTiming is one pass's wall-clock cost over a CheckSnapshot run
// (Init plus every Run), for the -timings lint summary.
type PassTiming struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// CheckSnapshot runs the passes over a shared snapshot, dropping
// findings suppressed for their pass, and returns the survivors sorted
// by (file, line, column, pass, message) — a total order, so the JSON
// and SARIF artifacts are byte-stable run-to-run — plus per-pass
// timings in pass order.
func CheckSnapshot(snap *Snapshot, passes []*Pass) ([]Finding, []PassTiming) {
	timings := make([]PassTiming, len(passes))
	for i, pass := range passes {
		timings[i].Name = pass.Name
		if pass.Init != nil {
			start := time.Now()
			pass.Init(snap)
			timings[i].Elapsed += time.Since(start)
		}
	}
	var out []Finding
	for _, pkg := range snap.Packages {
		suppressed := suppressedPasses(pkg)
		for i, pass := range passes {
			start := time.Now()
			for _, f := range pass.Run(pkg) {
				if suppressed[f.Pos.Filename][f.Pos.Line][f.Pass] {
					continue
				}
				out = append(out, f)
				timings[i].Findings++
			}
			timings[i].Elapsed += time.Since(start)
		}
	}
	SortFindings(out)
	return out, timings
}

// SortFindings orders findings by file, line, column, pass, message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

// inScope reports whether an import path falls under one of the scope
// prefixes; an empty scope matches everything. A prefix matches the
// path itself and everything below it ("ruu/internal/issue" matches
// "ruu/internal/issue/tagunit").
func inScope(path string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// funcDecls returns every function declaration (with a body) in the
// package; used by passes that attribute findings to the containing
// function.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// recvTypeName returns the bare name of a method's receiver type
// ("Engine" for func (e *Engine) ...), or "" for plain functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver, one type parameter
			t = tt.X
		case *ast.IndexListExpr: // generic receiver, several type parameters
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// namedRecvOf returns the receiver's named type name for a method
// object, dereferencing a pointer receiver, or "" when fn is not a
// method on a named type.
func namedRecvOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
