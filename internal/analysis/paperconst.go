package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// The paperconst pass keeps the reproduction's model constants honest.
// The paper pins the model architecture down numerically — 8 A, 8 S,
// 64 B, 64 T registers, one result bus, 6 load registers, 3-bit NI/LI
// counters, the functional-unit latency ladder, the RSTU/RUU sweep
// sizes of Tables 2-6 — and internal/isa/paperconst.go declares each
// of those once. A magic number elsewhere that restates one of the
// anchors is latent drift (edit one copy, forget the other, and the
// tables silently stop reproducing); one that already disagrees is
// drift realized. Both are findings: the fix is always to reference
// the canonical constant.
//
// Anchored positions, checked in the configured scope (cmd/, the root
// experiment harness, and the machine/fu/memsys/tagunit packages):
//
//   - const/var declarations whose name matches an anchor
//     (DefaultLoadRegs = 6);
//   - keyed struct-literal fields matching an anchor (LoadRegs: 6);
//   - flag defaults whose flag name matches an anchor
//     (flag.Int("loadregs", 6, ...));
//   - latency-table entries indexed by a Unit constant
//     (l[isa.UnitMem] = 5);
//   - int-slice declarations matching a sweep anchor
//     (RUUSizes = []int{...}), compared element-wise.
//
// Plain assignments to struct fields are deliberately not anchored:
// clamps and recomputations (c.CounterBits = 8 as a width limit) would
// false-positive. The canonical package itself is exempt — it is the
// one place the literals belong.

// PaperAnchor is one paper-pinned value.
type PaperAnchor struct {
	// Value is the paper's number.
	Value int64
	// Ref is how to cite the canonical constant in messages
	// ("isa.PaperLoadRegs").
	Ref string
}

// PaperSpec configures NewPaperConst.
type PaperSpec struct {
	// CanonicalPath is the package that defines the anchors; it is
	// exempt from the pass.
	CanonicalPath string
	// Anchors maps a normalized name (lowercase alphanumerics:
	// "loadregs") to the paper value. A declared name, struct key or
	// flag name matches an anchor exactly or with a "default"/"paper"
	// prefix.
	Anchors map[string]PaperAnchor
	// Sweeps maps a normalized name to an exact expected int list.
	Sweeps map[string][]int64
	// UnitPrefix names the enum type whose constants index latency
	// tables ("Unit"): l[UnitMem] = 5 anchors to "lat"+"mem".
	UnitPrefix string
	// ScopePkgs are exact package paths to check; ScopePrefixes are
	// checked with subpackages.
	ScopePkgs     []string
	ScopePrefixes []string
}

// NewPaperConst returns the paperconst pass for the given spec.
func NewPaperConst(spec PaperSpec) *Pass {
	return &Pass{
		Name: "paperconst",
		Doc:  "model constants match internal/isa/paperconst.go (no drifted or restated magic numbers)",
		Run: func(pkg *Package) []Finding {
			if pkg.Path == spec.CanonicalPath || !paperInScope(pkg.Path, spec) {
				return nil
			}
			c := &paperChecker{pkg: pkg, spec: spec}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ValueSpec:
						c.checkValueSpec(n)
					case *ast.KeyValueExpr:
						c.checkKeyValue(n)
					case *ast.CallExpr:
						c.checkFlagCall(n)
					case *ast.AssignStmt:
						c.checkLatencyAssign(n)
					}
					return true
				})
			}
			return c.out
		},
	}
}

func paperInScope(path string, spec PaperSpec) bool {
	for _, p := range spec.ScopePkgs {
		if path == p {
			return true
		}
	}
	return inScope(path, spec.ScopePrefixes)
}

type paperChecker struct {
	pkg  *Package
	spec PaperSpec
	out  []Finding
}

func (c *paperChecker) add(n ast.Node, format string, args ...any) {
	c.out = append(c.out, Finding{
		Pass:    "paperconst",
		Pos:     c.pkg.Pos(n),
		Message: fmt.Sprintf(format, args...),
	})
}

// normalize lowers a name to its alphanumeric core for anchor lookup.
func normalize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// anchorFor resolves a declared/keyed/flag name to an anchor, allowing
// the "default" and "paper" naming prefixes.
func (c *paperChecker) anchorFor(name string) (string, PaperAnchor, bool) {
	n := normalize(name)
	for _, key := range []string{n, strings.TrimPrefix(n, "default"), strings.TrimPrefix(n, "paper")} {
		if a, ok := c.spec.Anchors[key]; ok {
			return key, a, true
		}
	}
	return "", PaperAnchor{}, false
}

func (c *paperChecker) sweepFor(name string) (string, []int64, bool) {
	n := normalize(name)
	for _, key := range []string{n, strings.TrimPrefix(n, "default"), strings.TrimPrefix(n, "paper")} {
		if s, ok := c.spec.Sweeps[key]; ok {
			return key, s, true
		}
	}
	return "", nil, false
}

// intLit evaluates e to an integer constant if e is a literal (not a
// reference to a named constant — references are the fix, not drift).
func (c *paperChecker) intLit(e ast.Expr) (int64, bool) {
	if _, ok := ast.Unparen(e).(*ast.BasicLit); !ok {
		return 0, false
	}
	tv, ok := c.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// checkLit reports a literal restating or drifting from an anchor.
func (c *paperChecker) checkLit(n ast.Node, name string, a PaperAnchor, v int64) {
	if v != a.Value {
		c.add(n, "%s literal %d drifts from the paper value %d; use %s", name, v, a.Value, a.Ref)
		return
	}
	c.add(n, "%s literal %d restates a paper constant; reference %s", name, v, a.Ref)
}

// checkValueSpec anchors const/var declarations by name.
func (c *paperChecker) checkValueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		if _, a, ok := c.anchorFor(name.Name); ok {
			if v, lit := c.intLit(vs.Values[i]); lit {
				c.checkLit(vs.Values[i], name.Name, a, v)
			}
			continue
		}
		if _, want, ok := c.sweepFor(name.Name); ok {
			c.checkSweepLit(name.Name, vs.Values[i], want)
		}
	}
}

// checkSweepLit compares an int-slice literal against a sweep anchor.
func (c *paperChecker) checkSweepLit(name string, e ast.Expr, want []int64) {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return
	}
	tv, ok := c.pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Slice); !ok {
		return
	}
	var got []int64
	for _, el := range cl.Elts {
		v, ok := c.intLit(el)
		if !ok {
			return // non-literal elements: already derived, not restated
		}
		got = append(got, v)
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		c.add(cl, "%s sweep literal %v drifts from the paper's sizes %v; derive it from the canonical list", name, got, want)
		return
	}
	c.add(cl, "%s sweep literal restates the paper's sizes; derive it from the canonical list", name)
}

// checkKeyValue anchors keyed struct-literal fields (LoadRegs: 6).
func (c *paperChecker) checkKeyValue(kv *ast.KeyValueExpr) {
	key, ok := kv.Key.(*ast.Ident)
	if !ok {
		return
	}
	// Only struct fields: map literals key arbitrary data.
	if _, isField := c.pkg.Info.Uses[key].(*types.Var); !isField {
		return
	}
	if _, a, ok := c.anchorFor(key.Name); ok {
		if v, lit := c.intLit(kv.Value); lit {
			c.checkLit(kv.Value, key.Name, a, v)
		}
	}
}

// checkFlagCall anchors flag defaults: flag.Int("loadregs", 6, ...).
func (c *paperChecker) checkFlagCall(call *ast.CallExpr) {
	fn := calleeFunc(c.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name := strings.Trim(lit.Value, "`\"")
	if _, a, ok := c.anchorFor(name); ok {
		if v, isLit := c.intLit(call.Args[1]); isLit {
			c.checkLit(call.Args[1], "flag -"+name, a, v)
		}
	}
}

// checkLatencyAssign anchors latency-table entries indexed by a unit
// constant: l[isa.UnitMem] = 5 anchors to "lat"+"mem".
func (c *paperChecker) checkLatencyAssign(as *ast.AssignStmt) {
	if c.spec.UnitPrefix == "" || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	ix, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
	if !ok {
		return
	}
	obj := sliceRefObj(c.pkg.Info, ix.Index)
	cst, ok := obj.(*types.Const)
	if !ok || !strings.HasPrefix(cst.Name(), c.spec.UnitPrefix) {
		return
	}
	key := "lat" + normalize(strings.TrimPrefix(cst.Name(), c.spec.UnitPrefix))
	a, ok := c.spec.Anchors[key]
	if !ok {
		return
	}
	if v, lit := c.intLit(as.Rhs[0]); lit {
		c.checkLit(as.Rhs[0], "latency of "+cst.Name(), a, v)
	}
}
