// Package ssa is the value-flow layer of the repository's static
// analyzer: a zero-dependency (go/ast + go/types only) SSA-form IR
// built per function from the already type-checked tree the analysis
// loader produces.
//
// Its one client is policycontract, which asks whether the receiver
// of an architectural-state mutation outside the audited commit path
// was built in the same function (a shadow copy) or flowed in from the
// engine. The RTA call graph (internal/analysis/callgraph.go) answers
// "who calls whom"; this package answers "where did this value come
// from".
//
// The IR is variable-level SSA in the classic construction: a per-
// function control-flow graph of basic blocks, a dominator tree
// (Cooper-Harvey-Kennedy), phi placement on iterated dominance
// frontiers, and a renaming walk that leaves behind def-use chains —
// every use of a tracked local resolves to exactly one reaching
// definition (possibly a phi). Variables whose address is taken, that
// are captured by a closure, or that are bound by a type switch are
// deliberately untracked: a use of such a variable resolves to no
// definition, and clients must treat it as unknown. That keeps the
// builder simple and the analyses sound — imprecision always degrades
// to "don't know", never to a wrong fact. See docs/ANALYSIS.md (v4).
package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Func is the SSA-form view of one declared function or method.
type Func struct {
	// Decl is the source declaration the IR was built from.
	Decl *ast.FuncDecl
	// Fset positions the declaration's file.
	Fset *token.FileSet
	// Info is the enclosing package's type information.
	Info *types.Info
	// Blocks are the reachable basic blocks in reverse-postorder;
	// Blocks[0] is the entry.
	Blocks []*Block
	// Vars are the tracked local variables (params, results named in
	// the signature, := and var-declared locals) in first-seen order.
	Vars []*types.Var
	// UseDef resolves each identifier use of a tracked variable to its
	// unique reaching definition. A use absent from the map reads an
	// untracked variable (address-taken, closure-captured, or in
	// unreachable code) and must be treated as unknown.
	UseDef map[*ast.Ident]*Def
	// Defs lists every definition of each tracked variable: signature
	// definitions (params, receiver, named results) first, then phis
	// and assignments in dominator-tree visit order. Def.Num follows
	// this order, 1-based.
	Defs map[*types.Var][]*Def
	// Approx marks a function the builder could not fully analyze
	// (goto); its chains exist but may be incomplete, and clients that
	// need soundness should skip it.
	Approx bool
}

// Block is one basic block: straight-line statements (and the
// condition expression of a trailing two-way branch) with no internal
// control flow.
type Block struct {
	// Index is the block's position in Func.Blocks (reverse postorder).
	Index int
	// Nodes are the block's statements and condition expressions in
	// execution order. Compound statements never appear; the CFG
	// builder decomposes them.
	Nodes []ast.Node
	// Cond, when non-nil, is the boolean expression controlling the
	// block's two-way branch: Succs[0] is the true edge, Succs[1] the
	// false edge.
	Cond ast.Expr
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
	// Idom is the immediate dominator (nil for the entry block).
	Idom *Block
	// Phis are the block's phi definitions, one per variable merged
	// here.
	Phis []*Def

	children []*Block // dominator-tree children
	frontier []*Block // dominance frontier
	postnum  int
}

// DefKind classifies how a definition produces its value.
type DefKind uint8

const (
	// DefParam: a function parameter or method receiver (value unknown
	// but non-phi).
	DefParam DefKind = iota
	// DefZero: a declaration without an initializer (var x T): the
	// variable holds T's zero value.
	DefZero
	// DefAssign: an assignment or initialized declaration; Rhs is the
	// defining expression when the assignment pairs one lhs with one
	// rhs, nil for tuple assignments (x, y := f()).
	DefAssign
	// DefRange: a range clause binding (for k, v := range ...): a
	// fresh, unknown value per iteration.
	DefRange
	// DefPhi: a merge point; Args holds one incoming definition per
	// predecessor edge, in Preds order.
	DefPhi
)

func (k DefKind) String() string {
	switch k {
	case DefParam:
		return "param"
	case DefZero:
		return "zero"
	case DefAssign:
		return "assign"
	case DefRange:
		return "range"
	case DefPhi:
		return "phi"
	}
	return "unknown"
}

// Def is one SSA definition of a tracked variable.
type Def struct {
	// Var is the variable defined.
	Var *types.Var
	// Block is the defining block (nil only while building).
	Block *Block
	// Kind classifies the definition.
	Kind DefKind
	// Rhs is the defining expression for single-assignment DefAssign
	// definitions; nil otherwise.
	Rhs ast.Expr
	// Node is the defining site: the assignment statement, value spec,
	// range statement, or the receiver/parameter field. Nil for phis.
	Node ast.Node
	// Args are the phi operands, indexed like Block.Preds. Entries may
	// be nil when a predecessor path carries no definition (use before
	// def on that path — a vet-level bug; treat as unknown).
	Args []*Def
	// Num is the definition's 1-based version number within its
	// variable.
	Num int
}

// ObjOf resolves an identifier to the variable it uses or defines.
func (f *Func) ObjOf(id *ast.Ident) *types.Var {
	if v, ok := f.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := f.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}
