package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"ruu"
	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/isa"
	"ruu/internal/livermore"
	"ruu/internal/progsynth"
)

// This file generates each workload's requests. Every request body is a
// pure function of (workload, seed, task index): the server receives
// nothing else, and two runs with one seed send the same bytes.

// tableConfig is one machine configuration of the paper's Tables 1-7.
type tableConfig struct {
	Table     int // 1 for the simple baseline
	Engine    ruu.EngineKind
	Entries   int
	Paths     int
	Bypass    ruu.BypassKind
	Speculate bool
}

// config is the library form of c, field for field what the server
// builds from the wire form.
func (c tableConfig) config() ruu.Config {
	cfg := ruu.Config{Engine: c.Engine, Entries: c.Entries, Paths: c.Paths, Bypass: c.Bypass}
	cfg.Machine.Speculate = c.Speculate
	return cfg
}

// classes names the sim.ns_per_cycle groups the configuration falls
// in; the size groups split the non-speculative RUU of Tables 4-6.
func (c tableConfig) classes() []string {
	switch {
	case c.Engine == ruu.EngineSimple:
		return []string{"simple"}
	case c.Engine == ruu.EngineRSTU:
		return []string{"rstu"}
	case c.Speculate:
		return []string{"ruu_spec"}
	}
	cls := []string{"ruu"}
	if c.Entries <= 12 {
		cls = append(cls, "ruu_le12")
	}
	if c.Entries >= 25 {
		cls = append(cls, "ruu_ge25")
	}
	return cls
}

// paperConfigs lists the 73 configurations of Tables 1-7: the simple
// baseline, RSTU and 2-path RSTU at every RSTU size, the RUU with full,
// no and limited bypass at every RUU size, and the speculative RUU.
func paperConfigs() []tableConfig {
	cfgs := []tableConfig{{Table: 1, Engine: ruu.EngineSimple}}
	for _, n := range ruu.RSTUSizes {
		cfgs = append(cfgs, tableConfig{Table: 2, Engine: ruu.EngineRSTU, Entries: n})
	}
	for _, n := range ruu.RSTUSizes {
		cfgs = append(cfgs, tableConfig{Table: 3, Engine: ruu.EngineRSTU, Entries: n, Paths: 2})
	}
	for i, b := range []ruu.BypassKind{ruu.BypassFull, ruu.BypassNone, ruu.BypassLimited} {
		for _, n := range ruu.RUUSizes {
			cfgs = append(cfgs, tableConfig{Table: 4 + i, Engine: ruu.EngineRUU, Entries: n, Bypass: b})
		}
	}
	for _, n := range ruu.RUUSizes {
		cfgs = append(cfgs, tableConfig{Table: 7, Engine: ruu.EngineRUU, Entries: n, Bypass: ruu.BypassFull, Speculate: true})
	}
	return cfgs
}

// paperSweeps lays Tables 2-7 out as Runner.Sweep submits each: the
// simple baseline under the table's machine (so Table 7's baseline
// speculates), then the table's sizes in order. It returns the
// configurations the sweeps use, paperConfigs plus that speculative
// baseline, and each sweep as indices into them.
func paperSweeps() ([]tableConfig, [][]int) {
	cfgs := paperConfigs()
	n := len(cfgs)
	indexOf := func(c tableConfig) int {
		for i := range cfgs {
			if cfgs[i] == c {
				return i
			}
		}
		cfgs = append(cfgs, c)
		return len(cfgs) - 1
	}
	sweeps := make([][]int, 6)
	for i := 0; i < n; i++ {
		c := cfgs[i]
		if c.Table < 2 {
			continue
		}
		sw := &sweeps[c.Table-2]
		if len(*sw) == 0 {
			*sw = append(*sw, indexOf(tableConfig{Table: 1, Engine: ruu.EngineSimple, Speculate: c.Speculate}))
		}
		*sw = append(*sw, i)
	}
	return cfgs, sweeps
}

// program is one simulated program: a built-in kernel (sent by name) or
// assembly text (sent inline).
type program struct {
	id     string // "LLL3" or "synth-<n>"; identifies reference results
	kernel string
	src    string
}

// Unit assembles the program on the library path. Kernels are
// assembled once by their package; asm programs on every call, so a
// run's thousands of programs keep only their text resident.
func (p *program) Unit() (*ruu.Unit, error) {
	if p.kernel != "" {
		return livermore.ByName(p.kernel).Unit()
	}
	return ruu.Assemble(p.src)
}

// item is one simulation: a configuration and a program.
type item struct {
	cfg  int // index into paperConfigs
	prog *program
}

func (it item) id() string { return fmt.Sprintf("%d/%s", it.cfg, it.prog.id) }

// op is one HTTP request and what it carries.
type op struct {
	path    string // /v1/batch, /v1/simulate or /v1/analyze
	body    []byte
	items   []item   // simulations whose outcomes the reply carries
	analyze *program // set for /v1/analyze
}

// task is the unit a client takes from the sequence: one request, or
// on synth-cold the analyze-then-simulate pair of one program.
type task []op

// inputs is a workload's generated request sequence.
type inputs struct {
	configs []tableConfig
	task    func(i int64) task // pure; safe for concurrent use
	limit   int64              // tasks available (programs never repeat)
}

// wireItem is the JSON of one simulation item, shared by /v1/simulate
// and /v1/batch; zero fields take the server's defaults.
type wireItem struct {
	Engine    string `json:"engine"`
	Entries   int    `json:"entries,omitempty"`
	Paths     int    `json:"paths,omitempty"`
	Bypass    string `json:"bypass,omitempty"`
	Speculate bool   `json:"speculate,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Asm       string `json:"asm,omitempty"`
}

func wire(c tableConfig, p *program) wireItem {
	return wireItem{
		Engine: string(c.Engine), Entries: c.Entries, Paths: c.Paths,
		Bypass: string(c.Bypass), Speculate: c.Speculate,
		Kernel: p.kernel, Asm: p.src,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

func simulateOp(cfgs []tableConfig, it item) op {
	return op{path: "/v1/simulate", body: mustJSON(wire(cfgs[it.cfg], it.prog)), items: []item{it}}
}

func batchOp(cfgs []tableConfig, items []item) op {
	ws := make([]wireItem, len(items))
	for i, it := range items {
		ws[i] = wire(cfgs[it.cfg], it.prog)
	}
	return op{path: "/v1/batch", body: mustJSON(map[string]any{"items": ws}), items: items}
}

func analyzeOp(p *program) op {
	return op{path: "/v1/analyze", body: mustJSON(map[string]string{"asm": p.src}), analyze: p}
}

// mix derives an independent stream seed for stream s of a run.
func mix(seed, s int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(s)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x & (1<<63 - 1))
}

func kernelPrograms() []*program {
	var ps []*program
	for _, k := range livermore.Kernels() {
		ps = append(ps, &program{id: k.Name, kernel: k.Name})
	}
	return ps
}

// paperSweepInputs: task i is one /v1/batch of the 14 kernels at one
// configuration. Configurations come in rounds, each round a seeded
// permutation of all 73.
func paperSweepInputs(seed int64) *inputs {
	cfgs := paperConfigs()
	kernels := kernelPrograms()
	bodies := make([]op, len(cfgs))
	for c := range cfgs {
		items := make([]item, len(kernels))
		for i, p := range kernels {
			items[i] = item{cfg: c, prog: p}
		}
		bodies[c] = batchOp(cfgs, items)
	}
	n := int64(len(cfgs))
	return &inputs{
		configs: cfgs,
		limit:   1 << 62,
		task: func(i int64) task {
			perm := rand.New(rand.NewSource(mix(seed, i/n))).Perm(int(n))
			return task{bodies[perm[i%n]]}
		},
	}
}

// synthOptions bound the generated programs (the ruusim -synth shape).
var synthOptions = progsynth.Options{Nested: true, CondBranches: true}

// progsynthPrologue is the length of progsynth's fixed set-up: A6, then
// A1-A5 and every S register loaded with immediates.
const progsynthPrologue = 6 + isa.NumS

// screenClean rewrites a progsynth program until the value-free lint
// of the /v1/analyze pre-screen has no findings. Generated programs
// rely on zero-filled registers and leave dead writes, which the
// pre-screen rejects; so every register read before any write is set
// explicitly after the prologue, and every dead write becomes a nop.
// It reports false when other findings remain.
func screenClean(p *isa.Program) (*isa.Program, bool) {
	ins := append([]isa.Instruction(nil), p.Instructions...)
	for round := 0; round < 8; round++ {
		fs := dfa.Analyze(&isa.Program{Instructions: ins}).Lint()
		if len(fs) == 0 {
			return &isa.Program{Instructions: ins}, true
		}
		var inits []isa.Instruction
		seen := map[isa.Reg]bool{}
		for _, f := range fs {
			if f.Rule == dfa.RuleDeadStore || f.Rule == dfa.RuleLoopDeadWrite {
				ins[f.Idx] = isa.Instruction{Op: isa.Nop}
			} else if f.Rule == dfa.RuleUninitRead && !seen[f.Reg] {
				seen[f.Reg] = true
				inits = append(inits, initReg(f.Reg))
			} else if f.Rule != dfa.RuleUninitRead {
				return nil, false
			}
		}
		if len(inits) > 0 {
			for i := range ins {
				if ins[i].Op.IsBranch() && ins[i].Imm >= progsynthPrologue {
					ins[i].Imm += int64(len(inits))
				}
			}
			ins = append(ins[:progsynthPrologue], append(inits, ins[progsynthPrologue:]...)...)
		}
	}
	return nil, false
}

// initReg writes r from a register the prologue already set.
func initReg(r isa.Reg) isa.Instruction {
	if r.File == isa.FileA {
		return isa.Instruction{Op: isa.LoadAImm, I: r.Idx}
	} else if r.File == isa.FileS {
		return isa.Instruction{Op: isa.LoadSImm, I: r.Idx}
	} else if r.File == isa.FileB {
		return isa.Instruction{Op: isa.MovBA, I: 6, Imm: int64(r.Idx)}
	}
	return isa.Instruction{Op: isa.MovTS, I: 0, Imm: int64(r.Idx)}
}

// synthProgram renders progsynth program n of the run as assembly: the
// disassembled instructions plus its data window as .word directives.
// It reports false when the pre-screen would reject the program or the
// text does not assemble back to the same program and data, so such a
// draw is skipped, deterministically.
func synthProgram(seed, n int64) (*program, bool) {
	s := mix(seed, 1<<40+n)
	prog, ok := screenClean(progsynth.Generate(s, synthOptions))
	if !ok {
		return nil, false
	}
	st := progsynth.NewState(s, synthOptions)
	// Name every branch target so the disassembly uses labels.
	labeled := *prog
	labeled.Labels = map[string]int{}
	for _, ins := range prog.Instructions {
		if ins.Op.IsBranch() {
			labeled.Labels[fmt.Sprintf("L%d", ins.Imm)] = int(ins.Imm)
		}
	}
	var b strings.Builder
	b.WriteString(asm.Disassemble(&labeled))
	fmt.Fprintf(&b, "    .base %d\n", progsynth.DataBase)
	for w := 0; w < 64; w++ {
		fmt.Fprintf(&b, "    .word d%d %d\n", w, st.Mem.Peek(progsynth.DataBase+int64(w)))
	}
	p := &program{id: fmt.Sprintf("synth-%d", n), src: b.String()}
	u, err := p.Unit()
	if err != nil || len(u.Prog.Instructions) != len(prog.Instructions) {
		return nil, false
	}
	for i, ins := range u.Prog.Instructions {
		ins.Line = prog.Instructions[i].Line
		if !reflect.DeepEqual(ins, prog.Instructions[i]) {
			return nil, false
		}
	}
	mem := u.NewMemory()
	for w := int64(0); w < 64; w++ {
		if mem.Peek(progsynth.DataBase+w) != st.Mem.Peek(progsynth.DataBase+w) {
			return nil, false
		}
	}
	for _, f := range dfa.Analyze(u.Prog).InterpretState(ruu.NewState(u)).Lint() {
		if f.Rule.Severity() == dfa.SevError {
			return nil, false
		}
	}
	return p, true
}

// synthDraw is draw n of the run: a program, its seeded table
// configuration, and the serial reference digest of that simulation.
// It reports false when the draw is unusable: the program does not
// render (synthProgram), or its simulation fails to verify against the
// functional reference. The RSTU engine fails verification on roughly
// one generated program in several thousand; the benchmark measures
// speed, so such draws are skipped rather than sent.
func synthDraw(seed, n int64, cfgs []tableConfig) (item, [sha256.Size]byte, bool) {
	p, ok := synthProgram(seed, n)
	if !ok {
		return item{}, [sha256.Size]byte{}, false
	}
	it := item{cfg: int(uint64(mix(seed, 1<<42+n)) % uint64(len(cfgs))), prog: p}
	ref, err := reference(cfgs, refKey{cfg: it.cfg, prog: p})
	return it, ref, err == nil
}

// synthItems returns the first n usable draws of the run (fewer if
// 2n+100 draws do not yield them), drawing on GOMAXPROCS goroutines, and
// the reference digests of their simulations. Drawing stops once n
// draws are usable. Every index below the first one skipped was taken
// before that and is drawn, so the result is the first n usable draws
// whatever the goroutines' timing.
func synthItems(seed int64, n int) ([]item, map[refKey][sha256.Size]byte) {
	cfgs := paperConfigs()
	type draw struct {
		it  item
		ref [sha256.Size]byte
		ok  bool
	}
	var (
		mu     sync.Mutex
		draws  = map[int64]draw{}
		usable int
		wg     sync.WaitGroup
		next   atomic.Int64
	)
	limit := int64(2*n + 100)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := usable >= n
				mu.Unlock()
				i := next.Add(1) - 1
				if done || i >= limit {
					return
				}
				var d draw
				d.it, d.ref, d.ok = synthDraw(seed, i, cfgs)
				mu.Lock()
				draws[i] = d
				if d.ok {
					usable++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	items := make([]item, 0, n)
	refs := map[refKey][sha256.Size]byte{}
	for i := int64(0); len(items) < n && i < limit; i++ {
		if d, ok := draws[i]; ok && d.ok {
			items = append(items, d.it)
			refs[refKey{cfg: d.it.cfg, prog: d.it.prog}] = d.ref
		}
	}
	return items, refs
}

// synthColdInputs: task i is item i's program, analyzed and then
// simulated under the item's configuration, so programs never repeat
// within a run. Bodies are rendered per task, not kept: the program
// text is the only per-program state a run holds.
func synthColdInputs(items []item) *inputs {
	cfgs := paperConfigs()
	return &inputs{
		configs: cfgs,
		limit:   int64(len(items)),
		task: func(i int64) task {
			return task{analyzeOp(items[i].prog), simulateOp(cfgs, items[i])}
		},
	}
}

// sweepItems returns the items of sweep sw in submission order: the 14
// kernels under each configuration in turn, as Runner.Sweep lays out
// its (baseline + sizes) x kernels job list.
func sweepItems(sw []int, kernels []*program) []item {
	var items []item
	for _, c := range sw {
		for _, p := range kernels {
			items = append(items, item{cfg: c, prog: p})
		}
	}
	return items
}

// workingSet returns restart-warm's distinct items: every kernel under
// every configuration of the table sweeps, the whole of Tables 1-7.
func workingSet() []item {
	_, sweeps := paperSweeps()
	kernels := kernelPrograms()
	seen := map[item]bool{}
	var ws []item
	for _, sw := range sweeps {
		for _, it := range sweepItems(sw, kernels) {
			if !seen[it] {
				seen[it] = true
				ws = append(ws, it)
			}
		}
	}
	return ws
}

// restartWarmInputs is the traffic a fabric worker sees when a client
// runs the paper's tables through the coordinator again after the
// worker restarts. The client sends each of Tables 2-7 as one
// /v1/batch laid out as Runner.Sweep lays it out (paperSweeps), and the
// coordinator forwards every item as its own /v1/simulate
// (internal/server submitFabric), so task i is one item. Tables come in
// rounds, each a seeded permutation of the six; the baseline every
// sweep shares is what repeats most.
func restartWarmInputs(seed int64) *inputs {
	cfgs, sweeps := paperSweeps()
	kernels := kernelPrograms()
	ops := make([][]op, len(sweeps))
	var round int64
	for s, sw := range sweeps {
		for _, it := range sweepItems(sw, kernels) {
			ops[s] = append(ops[s], simulateOp(cfgs, it))
		}
		round += int64(len(ops[s]))
	}
	return &inputs{
		configs: cfgs,
		limit:   1 << 62,
		task: func(i int64) task {
			j := i % round
			for _, s := range rand.New(rand.NewSource(mix(seed, i/round))).Perm(len(ops)) {
				if j < int64(len(ops[s])) {
					return task{ops[s][j]}
				}
				j -= int64(len(ops[s]))
			}
			panic("task index outside its round")
		},
	}
}
