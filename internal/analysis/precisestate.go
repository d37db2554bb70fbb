package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// archMutators maps receiver type names to the methods that mutate
// architectural state. RegState.SetReg (promoted through exec.State)
// writes the register file; Memory.Write/Poke write memory words.
var archMutators = map[string]map[string]bool{
	"RegState": {"SetReg": true},
	"State":    {"SetReg": true},
	"Memory":   {"Write": true, "Poke": true},
}

// engineMethods is the method-set fingerprint identifying an
// instruction-issue engine (the issue.Engine surface, by name, so the
// pass also works on fixture packages that do not import the real
// interface).
var engineMethods = []string{"BeginCycle", "TryIssue", "Flush", "Retired", "InFlight", "Drained"}

// engineEntryPoints are the per-cycle methods the machine loop calls:
// the roots a finding's call path is traced from. Reset and Flush are
// absent: they run once per run or per recovery, not per cycle.
var engineEntryPoints = map[string]bool{
	"BeginCycle": true, "Dispatch": true, "TryIssue": true,
	"TryReadCond": true, "IssueBranch": true,
}

// engineTypeNames lists the package-level named types whose declared
// method set covers engineMethods.
func engineTypeNames(pkg *Package) []string {
	var out []string
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		have := map[string]bool{}
		for i := 0; i < named.NumMethods(); i++ {
			have[named.Method(i).Name()] = true
		}
		ok = true
		for _, m := range engineMethods {
			ok = ok && have[m]
		}
		if ok {
			out = append(out, name)
		}
	}
	return out
}

// Allowlist maps an import path to the set of function (or method)
// names within it that are audited architectural-state mutators.
type Allowlist map[string][]string

func (a Allowlist) allowed(pkgPath, fn string) bool {
	for _, name := range a[pkgPath] {
		if name == fn {
			return true
		}
	}
	return false
}

// NewPreciseState returns the precisestate pass, restricted to the
// given import-path prefixes (empty scope = every package).
//
// The paper's precise-interrupt argument (§4-5) rests on architectural
// state changing only at the commit boundary: the RUU buffers every
// result and writes the register file and memory strictly from its
// commit path, which is what makes the state at a trap recoverable. The
// imprecise engines mutate at completion — that is their defined
// discipline, and each of their mutator functions is individually
// audited. Either way, the set of functions allowed to call
// RegState.SetReg, Memory.Write, or Memory.Poke is closed: the pass
// turns the discipline into a compile gate, so a new code path that
// scribbles on architectural state from the wrong place is a lint
// failure, not a latent interrupt-recovery bug. To extend the set, add
// the function to the allowlist in docs/ANALYSIS.md order: audit the
// call site, then list it in DefaultPreciseStateAllow (or the engine's
// own entry).
//
// A finding inside an engine (a type carrying the issue.Engine method
// set) names the shortest call-graph route from an engine entry point
// to the offending function, from the call graph the snapshot shares.
func NewPreciseState(allow Allowlist, scope ...string) *Pass {
	var graph *CallGraph
	p := &Pass{
		Name: "precisestate",
		Doc:  "architectural register/memory writes only from allowlisted commit/writeback functions",
		Init: func(snap *Snapshot) {
			graph = snap.Graph()
		},
	}
	p.Run = func(pkg *Package) []Finding {
		if !inScope(pkg.Path, scope) {
			return nil
		}
		var out []Finding
		for _, fd := range funcDecls(pkg) {
			if fd.Body == nil || allow.allowed(pkg.Path, fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, meth, ok := mutatorCall(pkg.Info, call)
				if !ok {
					return true
				}
				msg := fmt.Sprintf(
					"architectural state mutation %s.%s outside the audited commit/writeback set for %s (allowed: %s)",
					recv, meth, pkg.Path, allowedNames(allow, pkg.Path))
				if path := entryPath(pkg, graph, fd); path != "" {
					msg += "; reachable from " + path
				}
				out = append(out, Finding{
					Pass:    p.Name,
					Pos:     pkg.Pos(call),
					Message: msg + "; see docs/ANALYSIS.md before extending the allowlist",
				})
				return true
			})
		}
		return out
	}
	return p
}

// mutatorCall reports whether a call invokes an architectural-state
// mutator, resolving the callee through the type-checker so promoted
// methods (st.SetReg via the embedded RegState) and any receiver
// expression shape are recognised.
func mutatorCall(info *types.Info, call *ast.CallExpr) (recvType, method string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", "", false
	}
	recv := namedRecvOf(fn)
	if recv == "" {
		return "", "", false
	}
	if ms, ok := archMutators[recv]; ok && ms[fn.Name()] {
		return recv, fn.Name(), true
	}
	return "", "", false
}

func allowedNames(allow Allowlist, pkgPath string) string {
	names := append([]string(nil), allow[pkgPath]...)
	if len(names) == 0 {
		return "none"
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// entryPath renders the shortest call-graph route from an engine entry
// point to fd, e.g. "(*RUU).BeginCycle via tryWakeup -> broadcast".
// Empty when no engine entry point reaches fd.
func entryPath(pkg *Package, graph *CallGraph, fd *ast.FuncDecl) string {
	target, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if target == nil {
		return ""
	}
	entries := make([]string, 0, len(engineEntryPoints))
	for entry := range engineEntryPoints {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	var best []*types.Func
	var bestEntry *types.Func
	for _, tn := range engineTypeNames(pkg) {
		for _, entry := range entries {
			root := graph.Lookup(pkg.Path, tn, entry)
			if root == nil {
				continue
			}
			p := callPath(graph, root, target)
			if p != nil && (best == nil || len(p) < len(best)) {
				best, bestEntry = p, root
			}
		}
	}
	if best == nil {
		return ""
	}
	s := "(*" + namedRecvOf(bestEntry) + ")." + bestEntry.Name()
	if len(best) > 1 {
		via := make([]string, 0, len(best)-1)
		for _, fn := range best[1:] {
			via = append(via, fn.Name())
		}
		s += " via " + strings.Join(via, " -> ")
	}
	return s
}

// callPath BFSes the module call graph from root, returning the node
// sequence root..target (shortest, deterministic), or nil.
func callPath(graph *CallGraph, root, target *types.Func) []*types.Func {
	if root == target {
		return []*types.Func{root}
	}
	prev := map[*types.Func]*types.Func{root: root}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		n := graph.nodes[fn]
		if n == nil {
			continue
		}
		for _, e := range n.edges {
			if _, seen := prev[e.callee]; seen {
				continue
			}
			prev[e.callee] = fn
			if e.callee == target {
				var path []*types.Func
				for at := target; ; at = prev[at] {
					path = append([]*types.Func{at}, path...)
					if at == root {
						return path
					}
				}
			}
			queue = append(queue, e.callee)
		}
	}
	return nil
}
