package ruu_test

import (
	"fmt"
	"testing"

	"ruu"
	"ruu/internal/exec"
	"ruu/internal/machine"
	"ruu/internal/progsynth"
)

// propConfigs is the configuration pool the property tests rotate
// through.
var propConfigs = []ruu.Config{
	{Engine: ruu.EngineSimple},
	{Engine: ruu.EngineTomasulo, Entries: 2},
	{Engine: ruu.EngineTagUnit, Entries: 2, TagUnitSize: 10},
	{Engine: ruu.EngineRSPool, Entries: 6, TagUnitSize: 10},
	{Engine: ruu.EngineReorder, Entries: 6},
	{Engine: ruu.EngineReorderBypass, Entries: 6},
	{Engine: ruu.EngineReorderFuture, Entries: 10},
	{Engine: ruu.EngineRSTU, Entries: 4},
	{Engine: ruu.EngineRSTU, Entries: 12, Paths: 2},
	{Engine: ruu.EngineRUU, Entries: 4, Bypass: ruu.BypassFull},
	{Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassNone},
	{Engine: ruu.EngineRUU, Entries: 9, Bypass: ruu.BypassLimited},
	{Engine: ruu.EngineRUU, Entries: 16, Bypass: ruu.BypassFull, CounterBits: 1},
	{Engine: ruu.EngineRUU, Entries: 7, Bypass: ruu.BypassLimited, CounterBits: 2},
	{Engine: ruu.EngineRUU, Entries: 6, Bypass: ruu.BypassFull,
		Machine: machine.Config{LoadRegs: 1}},
}

func runSynth(t *testing.T, seed int64, opts progsynth.Options, cfg ruu.Config, spec bool) {
	t.Helper()
	prog := progsynth.Generate(seed, opts)
	ref, refRes, err := exec.Reference(prog, progsynth.NewState(seed, opts), 0)
	if err != nil {
		t.Fatalf("seed %d: reference: %v", seed, err)
	}
	if refRes.Trap != nil {
		t.Fatalf("seed %d: generator produced a trapping program: %v", seed, refRes.Trap)
	}
	cfg.Machine.Speculate = spec
	st := progsynth.NewState(seed, opts)
	c, oracle := ruu.WithStateOracle(cfg, fmt.Sprintf("seed %d cfg %+v", seed, cfg), prog, st)
	m, err := ruu.NewMachine(c)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	res, err := m.Run(prog, st)
	if err != nil {
		t.Fatalf("seed %d cfg %+v: run: %v", seed, cfg, err)
	}
	if err := oracle.Err(); err != nil {
		t.Error(err)
	}
	if res.Trap != nil {
		t.Fatalf("seed %d cfg %+v: unexpected trap %v", seed, cfg, res.Trap)
	}
	if res.Stats.Instructions != refRes.Executed {
		t.Errorf("seed %d cfg %+v: executed %d, reference %d", seed, cfg, res.Stats.Instructions, refRes.Executed)
	}
	if !st.EqualRegs(ref) {
		t.Errorf("seed %d cfg %+v: registers differ: %v", seed, cfg, st.DiffRegs(ref))
	}
	if d := st.Mem.FirstDiff(ref.Mem); d >= 0 {
		t.Errorf("seed %d cfg %+v: memory differs at %d", seed, cfg, d)
	}
}

// TestPropertyRandomPrograms runs randomly synthesized programs through
// every engine configuration: architectural equivalence with the
// functional executor is the property, at every commit on a precise
// engine and at the end on every engine.
func TestPropertyRandomPrograms(t *testing.T) {
	opts := progsynth.Options{Nested: true}
	for seed := int64(1); seed <= 60; seed++ {
		cfg := propConfigs[int(seed)%len(propConfigs)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, cfg.Engine), func(t *testing.T) {
			runSynth(t, seed, opts, cfg, false)
		})
	}
}

// TestPropertySpeculation does the same with data-dependent forward
// branches and the speculative RUU, exercising misprediction squash.
func TestPropertySpeculation(t *testing.T) {
	opts := progsynth.Options{Nested: true, CondBranches: true}
	sizes := []int{4, 6, 10, 24}
	bypass := []ruu.BypassKind{ruu.BypassFull, ruu.BypassNone, ruu.BypassLimited}
	for seed := int64(100); seed <= 160; seed++ {
		cfg := ruu.Config{
			Engine:  ruu.EngineRUU,
			Entries: sizes[int(seed)%len(sizes)],
			Bypass:  bypass[int(seed)%len(bypass)],
		}
		t.Run(fmt.Sprintf("seed=%d/n=%d/%s", seed, cfg.Entries, cfg.Bypass), func(t *testing.T) {
			runSynth(t, seed, opts, cfg, true)
		})
	}
}

// TestPropertyCondBranchesNonSpec runs the branchy programs through the
// non-speculative engines too (forward branches resolve in decode).
func TestPropertyCondBranchesNonSpec(t *testing.T) {
	opts := progsynth.Options{Nested: true, CondBranches: true}
	for seed := int64(200); seed <= 230; seed++ {
		cfg := propConfigs[int(seed)%len(propConfigs)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, cfg.Engine), func(t *testing.T) {
			runSynth(t, seed, opts, cfg, false)
		})
	}
}

// TestGeneratorDeterminism: equal seeds must generate equal programs.
func TestGeneratorDeterminism(t *testing.T) {
	a := progsynth.Generate(7, progsynth.Options{Nested: true, CondBranches: true})
	b := progsynth.Generate(7, progsynth.Options{Nested: true, CondBranches: true})
	if len(a.Instructions) != len(b.Instructions) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Instructions), len(b.Instructions))
	}
	for i := range a.Instructions {
		if a.Instructions[i] != b.Instructions[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Instructions[i], b.Instructions[i])
		}
	}
}
