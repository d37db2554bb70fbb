package ruu

import (
	"context"
	"fmt"

	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/livermore"
	"ruu/internal/sched"
	"ruu/internal/store"
)

// This file is the simulation-service layer over the experiment
// harness (tables.go): a Runner owns a sched.Pool worker pool plus a
// content-addressed result cache, and re-expresses every table and
// ablation generator as a flat fan-out of independent kernel runs. The
// simulator itself stays single-threaded per run; the Runner only
// schedules whole runs. Results are byte-identical to the serial path
// by construction — sched.Map returns results in submission order, and
// each job is a pure function of its configuration, program, and
// initial state (which is exactly what the cache key covers).
//
// The package-level functions (RunKernels, Sweep, Table1..Table7, the
// ablations) keep their original serial, goroutine-free behaviour by
// delegating to a nil-pool Runner. cmd/tables and cmd/ruuserve build
// parallel Runners explicitly.

// DefaultCacheEntries is the default capacity of a Runner's result
// cache: one entry per (config, kernel) simulation outcome. A full
// table regeneration is ~1.5k runs; 4096 keeps every distinct
// simulation of a tables invocation resident.
const DefaultCacheEntries = 4096

// RunnerConfig parameterises NewRunner.
type RunnerConfig struct {
	// Workers is the worker-pool size (default runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pool's job queue (default 4x Workers).
	QueueDepth int
	// CacheEntries sizes the content-addressed result cache (default
	// DefaultCacheEntries; negative disables caching).
	CacheEntries int
	// Store, when non-nil, layers a disk-backed persistent result
	// store under the in-memory cache (ignored when caching is
	// disabled): memory misses fall through to disk and completed
	// results are written through, so a restarted Runner serves its
	// previous working set without re-simulating.
	Store *store.Store
}

// Runner executes experiment-harness work on a worker pool with a
// content-addressed result cache. The zero Runner (and a nil *Runner)
// is valid: it runs everything serially on the calling goroutine with
// no cache, exactly like the package-level functions.
type Runner struct {
	pool *sched.Pool
}

// serialRunner backs the package-level harness functions: nil pool, no
// goroutines, no cache.
var serialRunner = &Runner{}

// NewRunner returns a Runner with a started worker pool.
func NewRunner(cfg RunnerConfig) *Runner {
	var cache *sched.Cache
	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		cache = sched.NewCache(n)
		if cfg.Store != nil {
			cache.WithBacking(persistBacking{s: cfg.Store})
		}
	}
	return &Runner{pool: sched.New(sched.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Cache:      cache,
	})}
}

// Close drains and stops the worker pool; queued jobs still complete.
// Closing the zero Runner is a no-op.
func (r *Runner) Close() {
	if r != nil && r.pool != nil {
		r.pool.Close()
	}
}

// Pool exposes the underlying scheduler pool (nil for a serial
// Runner) — the server's /metrics endpoint reads its counters.
func (r *Runner) Pool() *sched.Pool {
	if r == nil {
		return nil
	}
	return r.pool
}

// poolFor returns the pool to fan a configuration out on: nil (serial)
// when an observer is attached, because probes are single-stream
// consumers and concurrent runs would interleave their events.
func (r *Runner) poolFor(cfg Config) *sched.Pool {
	if r == nil || cfg.Machine.Probe != nil {
		return nil
	}
	return r.pool
}

// jobKey returns the content address of one simulation: every Config
// field, the encoded program, and the complete initial architectural
// state. NoKey (uncacheable) when an observer is attached — a cache
// hit would silently skip the observer's event stream — or when the
// program does not encode.
func jobKey(cfg Config, u *Unit, st *State) sched.Key {
	if cfg.Machine.Probe != nil {
		return sched.NoKey
	}
	parcels, err := isa.Encode(u.Prog)
	if err != nil {
		return sched.NoKey
	}
	h := sched.NewHasher()
	h.String("engine", string(cfg.Engine))
	h.Int("entries", int64(cfg.Entries))
	h.Int("paths", int64(cfg.Paths))
	h.Int("tagunitsize", int64(cfg.TagUnitSize))
	h.String("bypass", string(cfg.Bypass))
	h.Int("nibits", int64(cfg.CounterBits))
	h.Int("width", int64(cfg.CommitWidth))
	// The machine frame is hashed through its Go representation so a
	// field added to machine.Config can never silently alias two
	// different timings (Probe is nil here by the guard above, so the
	// rendering is stable).
	h.String("machine", fmt.Sprintf("%#v", cfg.Machine))
	h.Words("prog", len(parcels), func(i int) int64 { return int64(parcels[i]) })
	h.Words("regs", isa.NumRegs, func(i int) int64 { return st.Reg(isa.FromFlat(i)) })
	h.Int("pc", int64(st.PC))
	h.Bool("halted", st.Halted)
	h.Words("mem", st.Mem.Size(), func(i int) int64 { return st.Mem.Peek(int64(i)) })
	return h.Sum()
}

// kernelKey is jobKey for a built-in kernel run; NoKey when the kernel
// fails to build (the job itself will surface that error).
func kernelKey(cfg Config, k *livermore.Kernel) sched.Key {
	u, err := k.Unit()
	if err != nil {
		return sched.NoKey
	}
	st, err := k.NewState()
	if err != nil {
		return sched.NoKey
	}
	return jobKey(cfg, u, st)
}

// kernelSpec is one flattened (configuration, kernel) job of a sweep
// or ablation fan-out.
type kernelSpec struct {
	cfg Config
	k   *livermore.Kernel
	// wrap, when non-empty, prefixes job errors ("entries=8",
	// "RSTU (10)"), matching the serial harness's error text.
	wrap string
}

// runSpecs fans the flattened job list out on the pool (or runs it
// serially for a nil pool), returning per-spec results in spec order.
// Each job carries a display name ("LLL3 entries=16") so a traced
// sweep shows recognisable slices in the scheduler track.
func runSpecs(ctx context.Context, p *sched.Pool, specs []kernelSpec) ([]KernelRun, error) {
	return sched.MapNamed(ctx, p, len(specs),
		func(i int) string {
			if specs[i].wrap != "" {
				return specs[i].k.Name + " " + specs[i].wrap
			}
			return specs[i].k.Name + " baseline"
		},
		func(i int) sched.Key { return kernelKey(specs[i].cfg, specs[i].k) },
		func(_ context.Context, i int) (KernelRun, error) {
			kr, err := runKernel(specs[i].cfg, specs[i].k)
			if err != nil && specs[i].wrap != "" {
				return kr, fmt.Errorf("%s: %w", specs[i].wrap, err)
			}
			return kr, err
		})
}

// kernelSpecs appends one spec per Livermore kernel under cfg.
func kernelSpecs(specs []kernelSpec, cfg Config, wrap string) []kernelSpec {
	for _, k := range livermore.Kernels() {
		specs = append(specs, kernelSpec{cfg: cfg, k: k, wrap: wrap})
	}
	return specs
}

// RunKernels executes every Livermore kernel under cfg on the Runner's
// pool, verifying each final state (see the package-level RunKernels).
func (r *Runner) RunKernels(ctx context.Context, cfg Config) ([]KernelRun, error) {
	return runSpecs(ctx, r.poolFor(cfg), kernelSpecs(nil, cfg, ""))
}

// Sweep runs the kernel suite at each entry count with cfg as the
// template, fanning the whole (baseline + sizes) x kernels matrix out
// as one flat job list, and aggregates exactly like the serial Sweep —
// the output is byte-identical.
func (r *Runner) Sweep(ctx context.Context, cfg Config, sizes []int) ([]SpeedupRow, error) {
	bound, err := DataflowLimit(cfg.Machine)
	if err != nil {
		return nil, err
	}
	specs := kernelSpecs(nil, Config{Engine: EngineSimple, Machine: cfg.Machine}, "")
	for _, n := range sizes {
		c := cfg
		c.Entries = n
		specs = kernelSpecs(specs, c, fmt.Sprintf("entries=%d", n))
	}
	runs, err := runSpecs(ctx, r.poolFor(cfg), specs)
	if err != nil {
		return nil, err
	}
	nk := len(livermore.Kernels())
	baseTotal := Totals(runs[:nk])
	limit := float64(baseTotal.Cycles) / float64(bound)
	rows := make([]SpeedupRow, 0, len(sizes))
	for i, n := range sizes {
		t := Totals(runs[nk*(i+1) : nk*(i+2)])
		rows = append(rows, SpeedupRow{
			Entries:   n,
			Speedup:   float64(baseTotal.Cycles) / float64(t.Cycles),
			IssueRate: t.IssueRate(),
			Limit:     limit,
		})
	}
	return rows, nil
}

// Table1 regenerates Table 1 on the Runner's pool.
func (r *Runner) Table1(ctx context.Context) ([]Table1Row, error) {
	runs, err := r.RunKernels(ctx, Config{Engine: EngineSimple})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(runs)+1)
	for _, kr := range runs {
		rows = append(rows, Table1Row{kr.Kernel, kr.Instructions, kr.Cycles, kr.IssueRate()})
	}
	t := Totals(runs)
	rows = append(rows, Table1Row{t.Kernel, t.Instructions, t.Cycles, t.IssueRate()})
	return rows, nil
}

// Table2 through Table7 regenerate the paper's sweep tables on the
// Runner's pool; see the package-level functions for what each table
// is.
func (r *Runner) Table2(ctx context.Context) ([]SpeedupRow, error) {
	return r.Sweep(ctx, Config{Engine: EngineRSTU}, RSTUSizes)
}

func (r *Runner) Table3(ctx context.Context) ([]SpeedupRow, error) {
	return r.Sweep(ctx, Config{Engine: EngineRSTU, Paths: 2}, RSTUSizes)
}

func (r *Runner) Table4(ctx context.Context) ([]SpeedupRow, error) {
	return r.Sweep(ctx, Config{Engine: EngineRUU, Bypass: BypassFull}, RUUSizes)
}

func (r *Runner) Table5(ctx context.Context) ([]SpeedupRow, error) {
	return r.Sweep(ctx, Config{Engine: EngineRUU, Bypass: BypassNone}, RUUSizes)
}

func (r *Runner) Table6(ctx context.Context) ([]SpeedupRow, error) {
	return r.Sweep(ctx, Config{Engine: EngineRUU, Bypass: BypassLimited}, RUUSizes)
}

func (r *Runner) Table7(ctx context.Context) ([]SpeedupRow, error) {
	cfg := Config{Engine: EngineRUU, Bypass: BypassFull}
	cfg.Machine.Speculate = true
	return r.Sweep(ctx, cfg, RUUSizes)
}

// labeledConfig is one row of an ablation: a display label and the
// configuration it measures.
type labeledConfig struct {
	label string
	cfg   Config
}

// ablate fans (baseline + each configuration) x kernels out as one
// flat job list and aggregates into ablation rows, byte-identical to
// the serial ablation loops.
func (r *Runner) ablate(ctx context.Context, cfgs []labeledConfig) ([]AblationRow, error) {
	specs := kernelSpecs(nil, Config{Engine: EngineSimple}, "")
	for _, c := range cfgs {
		specs = kernelSpecs(specs, c.cfg, c.label)
	}
	// Observed configs force the serial path; an ablation mixes
	// configs, so serialise if any of them carries an observer.
	p := r.poolFor(Config{})
	for _, c := range cfgs {
		if r.poolFor(c.cfg) == nil {
			p = nil
		}
	}
	runs, err := runSpecs(ctx, p, specs)
	if err != nil {
		return nil, err
	}
	nk := len(livermore.Kernels())
	baseCycles := Totals(runs[:nk]).Cycles
	rows := make([]AblationRow, 0, len(cfgs))
	for i, c := range cfgs {
		t := Totals(runs[nk*(i+1) : nk*(i+2)])
		rows = append(rows, AblationRow{c.label, float64(baseCycles) / float64(t.Cycles), t.IssueRate()})
	}
	return rows, nil
}

// AblationRSOrganisation runs ablation A1 on the Runner's pool.
func (r *Runner) AblationRSOrganisation(ctx context.Context) ([]AblationRow, error) {
	return r.ablate(ctx, ablationRSOrganisationConfigs())
}

// AblationPreciseSchemes runs ablation A4 on the Runner's pool.
func (r *Runner) AblationPreciseSchemes(ctx context.Context, size int) ([]AblationRow, error) {
	return r.ablate(ctx, ablationPreciseSchemesConfigs(size))
}

// AblationInstructionBuffers runs ablation A5 on the Runner's pool.
func (r *Runner) AblationInstructionBuffers(ctx context.Context, size int) ([]AblationRow, error) {
	return r.ablate(ctx, ablationInstructionBuffersConfigs(size))
}

// AblationCounterWidth runs ablation A2 on the Runner's pool.
func (r *Runner) AblationCounterWidth(ctx context.Context, size int) ([]AblationRow, error) {
	return r.ablate(ctx, ablationCounterWidthConfigs(size))
}

// AblationLoadRegs runs ablation A3 on the Runner's pool.
func (r *Runner) AblationLoadRegs(ctx context.Context, size int) ([]AblationRow, error) {
	return r.ablate(ctx, ablationLoadRegsConfigs(size))
}

// SimOutcome is the cacheable result of one program simulation: the
// run statistics plus the verification verdict. It is plain data — the
// property that lets the service cache and replay it.
type SimOutcome struct {
	Engine       string           `json:"engine"`
	Instructions int64            `json:"instructions"`
	Cycles       int64            `json:"cycles"`
	IssueRate    float64          `json:"issue_rate"`
	Branches     int64            `json:"branches"`
	Taken        int64            `json:"taken"`
	Mispredicts  int64            `json:"mispredicts,omitempty"`
	MaxInFlight  int              `json:"max_in_flight"`
	IBufMisses   int64            `json:"ibuf_misses,omitempty"`
	Stalls       map[string]int64 `json:"stalls"`
	Trap         string           `json:"trap,omitempty"`
	Precise      bool             `json:"precise,omitempty"`
	Verified     bool             `json:"verified"`
}

// ProgramKey returns the content address a (cfg, u, verify) program
// simulation is cached — and routed across the fabric — under; NoKey
// when the job is uncacheable (observer attached or unencodable
// program).
func ProgramKey(cfg Config, u *Unit, verify bool) sched.Key {
	key := jobKey(cfg, u, NewState(u))
	if key.IsZero() {
		return key
	}
	if !verify {
		// The verdict is part of the outcome, so verified and
		// unverified runs must not share a cache slot.
		h := sched.NewHasher()
		h.Bytes("unverified", key[:])
		key = h.Sum()
	}
	return key
}

// SubmitProgram enqueues one program simulation and returns a wait
// function redeeming its outcome — the split that lets a batch submit
// every item before waiting on any, so the pool runs them concurrently
// while results are still consumed in submission order. On a serial
// Runner the returned function runs the simulation when called.
func (r *Runner) SubmitProgram(ctx context.Context, cfg Config, u *Unit, verify bool) (func(context.Context) (SimOutcome, error), error) {
	run := func(context.Context) (any, error) {
		return simulateUnit(cfg, u, verify)
	}
	p := r.poolFor(cfg)
	if p == nil {
		return func(ctx context.Context) (SimOutcome, error) {
			if err := ctx.Err(); err != nil {
				return SimOutcome{}, err
			}
			v, err := run(ctx)
			if err != nil {
				return SimOutcome{}, err
			}
			return v.(SimOutcome), nil
		}, nil
	}
	t, err := p.Submit(ctx, ProgramKey(cfg, u, verify), run)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (SimOutcome, error) {
		v, err := t.Wait(ctx)
		if err != nil {
			return SimOutcome{}, err
		}
		return v.(SimOutcome), nil
	}, nil
}

// RunProgram simulates one assembled unit under cfg as a single pool
// job, returning the run statistics. With verify set, the final state
// is checked against the functional reference and a mismatch is an
// error. Identical submissions (same config, program, initial state)
// are answered from the content-addressed cache.
func (r *Runner) RunProgram(ctx context.Context, cfg Config, u *Unit, verify bool) (SimOutcome, error) {
	wait, err := r.SubmitProgram(ctx, cfg, u, verify)
	if err != nil {
		return SimOutcome{}, err
	}
	return wait(ctx)
}

// simulateUnit is the body of a RunProgram job.
func simulateUnit(cfg Config, u *Unit, verify bool) (SimOutcome, error) {
	st := NewState(u)
	m, err := NewMachine(cfg)
	if err != nil {
		return SimOutcome{}, err
	}
	res, err := m.Run(u.Prog, st)
	if err != nil {
		return SimOutcome{}, err
	}
	out := SimOutcome{
		Engine:       m.Engine().Name(),
		Instructions: res.Stats.Instructions,
		Cycles:       res.Stats.Cycles,
		IssueRate:    res.Stats.IssueRate(),
		Branches:     res.Stats.Branches,
		Taken:        res.Stats.Taken,
		Mispredicts:  res.Stats.Mispredicts,
		MaxInFlight:  res.Stats.MaxInFlight,
		IBufMisses:   res.Stats.IBufMisses,
		Stalls:       res.Stats.StallsByName(),
	}
	if res.Trap != nil {
		out.Trap = res.Trap.Error()
		out.Precise = res.Precise
		return out, nil
	}
	if verify {
		ref, refRes, err := exec.Reference(u.Prog, NewState(u), 0)
		if err != nil {
			return SimOutcome{}, fmt.Errorf("reference: %w", err)
		}
		if res.Stats.Instructions != refRes.Executed {
			return SimOutcome{}, fmt.Errorf("verify: instruction count %d != reference %d", res.Stats.Instructions, refRes.Executed)
		}
		if !st.EqualRegs(ref) {
			return SimOutcome{}, fmt.Errorf("verify: registers differ from reference: %v", st.DiffRegs(ref))
		}
		if d := st.Mem.FirstDiff(ref.Mem); d >= 0 {
			return SimOutcome{}, fmt.Errorf("verify: memory differs from reference at word %d", d)
		}
		out.Verified = true
	}
	return out, nil
}
