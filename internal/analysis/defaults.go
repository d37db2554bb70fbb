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
	"internal/core",
	"internal/issue",
	"internal/machine",
	"internal/memsys",
	"internal/fu",
	"internal/obs",
	"internal/sched",
	"internal/server",
}

// ServicePackages lists the concurrent service-layer packages
// (relative to the module path): the worker pool, the HTTP API, the
// metrics registry, the serving binary, and the distributed sweep
// fabric (the persistent result store and the consistent-hash
// coordinator). The mutexguard, ctxflow, and goroutineleak passes run
// over these — the layer where a concurrency bug multiplies across
// shards instead of staying a local curiosity. internal/store and
// internal/fabric are deliberately NOT in SimPackages: the store does
// wall-clock-free disk I/O, and the coordinator legitimately uses
// timers, jittered backoff, and health-check tickers — none of which
// can influence simulation results, which stay content-addressed.
var ServicePackages = []string{
	"internal/sched",
	"internal/server",
	"internal/obs",
	"internal/store",
	"internal/fabric",
	"cmd/ruuserve",
}

// NilnessPackages lists the packages (relative to the module path) the
// nilness value-flow pass runs over: the service layer and the command
// binaries, where pointers and errors cross API boundaries. The
// simulation core is excluded by design — its invariants are enforced
// by the engine-specific passes, and its inner loops use nil probes and
// nil tables as deliberate sentinels.
var NilnessPackages = []string{
	"internal/sched",
	"internal/server",
	"internal/obs",
	"cmd",
}

// EnginePackages lists the packages holding issue engines (relative to
// the module path); the probeemit and precisestate passes run over
// these.
var EnginePackages = []string{
	"internal/core",
	"internal/issue",
	"internal/machine",
}

// DefaultPreciseStateAllow is the audited set of architectural-state
// mutator functions, per package (relative to the module path). The
// RUU and the reorder buffer mutate only at commit (the precise
// discipline); the imprecise engines mutate at completion, from the
// result-broadcast and memory-op paths audited here. Extending this
// list is an explicit, reviewed act — see docs/ANALYSIS.md.
var DefaultPreciseStateAllow = map[string][]string{
	// RUU (§5): all architectural writes happen at the head, in commit.
	"internal/core": {"commit"},
	// Reorder buffer variants: likewise commit-only.
	"internal/issue/reorder": {"commit"},
	// Simple in-order issue: registers update at result writeback in
	// BeginCycle; stores write memory at issue (no store buffering).
	"internal/issue/simple": {"BeginCycle", "TryIssue"},
	// Tomasulo, Tag Unit, RS pool and RSTU: register writeback in
	// BeginCycle, stores from tryMemOp.
	"internal/issue/tagunit": {"BeginCycle", "tryMemOp"},
}

// HotPathPackages lists the packages (relative to the module path)
// whose code runs on the machine's per-cycle step; the hotpathalloc
// pass reports allocation sites reachable from the cycle loop here.
var HotPathPackages = []string{
	"internal/core",
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
// misprediction recovery, not once per cycle (the same boundary
// probeemit draws).
var DefaultColdFuncs = []string{"Flush", "Reset"}

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
			modulePath + "/internal/core",
		},
		ScopePrefixes: []string{modulePath + "/cmd"},
	}
}

// DefaultPasses returns the repository's pass set wired with the
// default scopes and allowlist, for a module with the given path
// ("ruu").
func DefaultPasses(modulePath string) []*Pass {
	prefix := func(rels []string) []string {
		out := make([]string, len(rels))
		for i, r := range rels {
			out[i] = modulePath + "/" + r
		}
		return out
	}
	allow := Allowlist{}
	for rel, fns := range DefaultPreciseStateAllow {
		allow[modulePath+"/"+rel] = fns
	}
	passes := []*Pass{
		NewSimDeterminism(prefix(SimPackages)...),
		NewProbeEmit(prefix(EnginePackages)...),
		NewPreciseState(allow, prefix(EnginePackages)...),
		NewHotPathAlloc(HotPathConfig{
			Roots:     DefaultHotRoots(modulePath),
			Scope:     prefix(HotPathPackages),
			ColdTypes: DefaultColdTypes,
			ColdFuncs: DefaultColdFuncs,
		}),
		NewExhaustive([]string{modulePath}),
		NewPaperConst(DefaultPaperSpec(modulePath)),
		NewMutexGuard(prefix(ServicePackages)...),
		NewCtxFlow(prefix(ServicePackages)...),
		NewGoroutineLeak(prefix(ServicePackages)...),
		NewHTTPContract(modulePath + "/internal/server"),
		NewNilness(prefix(NilnessPackages)),
		NewPolicyContract(allow, prefix(EnginePackages)...),
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
