package analysis

import "ruu/internal/isa"

// SimPackages lists the simulation packages (relative to the module
// path) whose behaviour must be bit-for-bit reproducible; the
// simdeterminism pass runs over these. internal/sched and
// internal/server are deliberately in scope even though they are the
// module's two goroutine-bearing packages: every goroutine, select, and
// time.Now they contain must carry an individually justified
// //ruulint:ok <pass> marker (no blanket suppression), so any new
// concurrency added there without a written justification is a lint
// failure.
var SimPackages = []string{
	"internal/issue",
	"internal/machine",
	"internal/memsys",
	"internal/fu",
	"internal/obs",
	"internal/sched",
	"internal/server",
}

// EnginePackages lists the packages holding issue engines (relative to
// the module path). In them simdeterminism reports every map range,
// whatever its body.
var EnginePackages = []string{
	"internal/issue",
	"internal/machine",
}

// HotPathPackages lists the packages (relative to the module path)
// whose code runs on the machine's per-cycle step; the hotpathalloc
// pass reports allocation sites reachable from the cycle loop here.
var HotPathPackages = []string{
	"internal/issue",
	"internal/machine",
	"internal/memsys",
	"internal/fu",
	"internal/exec",
	"internal/dfa",
	"internal/sched",
}

// DefaultHotRoots seed hot-path reachability: the cycle loop of
// (*machine.Machine).Run, and the per-instruction replay loops of the
// dataflow oracle (the oracle walks the same dynamic stream as the
// machine, once per oracle test, so its loop bodies are held to the
// same allocation-freedom bar). LoopOnly keeps the per-run setup above
// each loop cold; everything the loop bodies reach — through the
// issue.Engine interface into every engine, and onward into
// exec/fu/memsys — is hot.
func DefaultHotRoots(modulePath string) []HotRoot {
	return []HotRoot{
		{Pkg: modulePath + "/internal/machine", Recv: "Machine", Func: "Run", LoopOnly: true},
		{Pkg: modulePath + "/internal/dfa", Func: "ComputeBound", LoopOnly: true},
		{Pkg: modulePath + "/internal/dfa", Func: "ComputeCensus", LoopOnly: true},
		// The scheduler's per-job dispatch loop: job bodies allocate
		// freely (they run whole simulations), but the dispatch path
		// itself must not.
		{Pkg: modulePath + "/internal/sched", Recv: "Pool", Func: "worker", LoopOnly: true},
	}
}

// DefaultColdTypes are types whose construction ends or interrupts a
// run; allocating them is off the per-cycle fast path.
var DefaultColdTypes = []string{"Trap", "Fault"}

// DefaultColdFuncs are functions the hot-path traversal treats as
// cold boundaries: wholesale flush/reset runs once per interrupt or
// misprediction recovery, not once per cycle, and memsys's copyPage,
// the copy-on-write of a page a memory shares, runs at most once per
// page per run: the memory owns the page from then on.
// TestPageCopyAllocs in the root package pins that bound.
var DefaultColdFuncs = []string{"Flush", "Reset", "copyPage"}

// DefaultPaperSpec anchors the paperconst pass to
// internal/isa/paperconst.go, the single source of truth for the
// paper's model constants.
func DefaultPaperSpec(modulePath string) PaperSpec {
	return PaperSpec{
		CanonicalPath: modulePath + "/internal/isa",
		Anchors: map[string]PaperAnchor{
			"numa":        {isa.PaperNumA, "isa.PaperNumA"},
			"nums":        {isa.PaperNumS, "isa.PaperNumS"},
			"numb":        {isa.PaperNumB, "isa.PaperNumB"},
			"numt":        {isa.PaperNumT, "isa.PaperNumT"},
			"resultbuses": {isa.PaperResultBuses, "isa.PaperResultBuses"},
			"loadregs":    {isa.PaperLoadRegs, "isa.PaperLoadRegs"},
			"counterbits": {isa.PaperCounterBits, "isa.PaperCounterBits"},
			"commitwidth": {isa.PaperCommitWidth, "isa.PaperCommitWidth"},
			"lataint":     {isa.LatAInt, "isa.LatAInt"},
			"latamul":     {isa.LatAMul, "isa.LatAMul"},
			"latslog":     {isa.LatSLog, "isa.LatSLog"},
			"latsshift":   {isa.LatSShift, "isa.LatSShift"},
			"latsadd":     {isa.LatSAdd, "isa.LatSAdd"},
			"latfadd":     {isa.LatFAdd, "isa.LatFAdd"},
			"latfmul":     {isa.LatFMul, "isa.LatFMul"},
			"latfrecip":   {isa.LatFRecip, "isa.LatFRecip"},
			"latmem":      {isa.LatMem, "isa.LatMem"},
			"latmove":     {isa.LatMove, "isa.LatMove"},
		},
		Sweeps: map[string][]int64{
			"rstusizes": toInt64(isa.PaperRSTUSizes[:]),
			"ruusizes":  toInt64(isa.PaperRUUSizes[:]),
		},
		UnitPrefix: "Unit",
		ScopePkgs: []string{
			modulePath, // tables.go and the public configuration API
			modulePath + "/internal/machine",
			modulePath + "/internal/memsys",
			modulePath + "/internal/fu",
			modulePath + "/internal/issue/tagunit",
		},
		ScopePrefixes: []string{modulePath + "/cmd"},
	}
}

// DefaultPasses returns the repository's pass set wired with the
// default scopes, for a module with the given path ("ruu").
func DefaultPasses(modulePath string) []*Pass {
	prefix := func(rels []string) []string {
		out := make([]string, len(rels))
		for i, r := range rels {
			out[i] = modulePath + "/" + r
		}
		return out
	}
	passes := []*Pass{
		NewSimDeterminism(prefix(SimPackages), prefix(EnginePackages)),
		NewHotPathAlloc(HotPathConfig{
			Roots:     DefaultHotRoots(modulePath),
			Scope:     prefix(HotPathPackages),
			ColdTypes: DefaultColdTypes,
			ColdFuncs: DefaultColdFuncs,
		}),
		NewExhaustive([]string{modulePath}),
		NewPaperConst(DefaultPaperSpec(modulePath)),
	}
	names := make([]string, 0, len(passes)+1)
	for _, p := range passes {
		names = append(names, p.Name)
	}
	names = append(names, "suppression")
	return append(passes, NewSuppressionCheck(names))
}

// toInt64 widens a sweep list for the spec.
func toInt64(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}
