package ruu_test

import (
	"testing"

	"ruu"
	"ruu/internal/issue"
	"ruu/internal/livermore"
)

// TestGoldenCycleCounts pins exact cycle counts and per-reason decode
// stall counts for a spread of configurations and kernels. The timing
// model is deterministic, so any drift here is a real change to the
// simulated microarchitecture: if a change is intentional, update the
// goldens AND re-run cmd/tables to refresh EXPERIMENTS.md; if not, this
// test just caught a timing regression that the architectural-
// equivalence tests cannot see.
func TestGoldenCycleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep")
	}
	type key struct {
		kernel, cfg string
	}
	// stalls is indexed by issue.StallReason: none, operand, dest,
	// entry, bus, branch, fetch, loadreg, drain.
	type stalls = [issue.NumStallReasons]int64
	type golden struct {
		cycles int64
		stalls stalls
	}
	configs := map[string]ruu.Config{
		"simple":     {Engine: ruu.EngineSimple},
		"tomasulo2":  {Engine: ruu.EngineTomasulo, Entries: 2},
		"tu-dist":    {Engine: ruu.EngineTagUnit, Entries: 3, TagUnitSize: 20},
		"rspool10":   {Engine: ruu.EngineRSPool, Entries: 10, TagUnitSize: 20},
		"rstu10":     {Engine: ruu.EngineRSTU, Entries: 10},
		"rstu10-2p":  {Engine: ruu.EngineRSTU, Entries: 10, Paths: 2},
		"ruu12-full": {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassFull},
		"ruu12-none": {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassNone},
		"ruu12-lim":  {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassLimited},
		"reorder12":  {Engine: ruu.EngineReorder, Entries: 12},
	}
	// The pinned values (regenerate with -run TestGoldenCycleCounts -v
	// after an intentional timing change and copy from the log).
	expect := map[key]golden{
		{"LLL1", "simple"}:      {16806, stalls{0, 8800, 0, 0, 803, 0, 2395, 0, 0}},
		{"LLL1", "tomasulo2"}:   {12428, stalls{0, 0, 0, 4404, 0, 800, 2395, 0, 21}},
		{"LLL1", "tu-dist"}:     {8429, stalls{0, 0, 0, 0, 0, 1200, 2395, 0, 26}},
		{"LLL1", "rspool10"}:    {8429, stalls{0, 0, 0, 0, 0, 1200, 2395, 0, 26}},
		{"LLL1", "rstu10"}:      {8429, stalls{0, 0, 0, 399, 0, 801, 2395, 0, 26}},
		{"LLL1", "rstu10-2p"}:   {8228, stalls{0, 0, 0, 399, 0, 599, 2395, 0, 27}},
		{"LLL1", "ruu12-full"}:  {10619, stalls{0, 0, 0, 2199, 0, 1199, 2395, 0, 18}},
		{"LLL1", "ruu12-none"}:  {10424, stalls{0, 0, 0, 1999, 0, 1200, 2395, 0, 22}},
		{"LLL1", "ruu12-lim"}:   {10619, stalls{0, 0, 0, 2199, 0, 1199, 2395, 0, 18}},
		{"LLL1", "reorder12"}:   {16806, stalls{0, 8800, 0, 0, 803, 0, 2395, 0, 0}},
		{"LLL5", "simple"}:      {26892, stalls{0, 12948, 0, 0, 0, 0, 5971, 0, 0}},
		{"LLL5", "tomasulo2"}:   {17939, stalls{0, 0, 0, 2988, 0, 996, 5971, 0, 11}},
		{"LLL5", "tu-dist"}:     {16445, stalls{0, 0, 0, 0, 0, 2490, 5971, 0, 11}},
		{"LLL5", "rspool10"}:    {16445, stalls{0, 0, 0, 0, 0, 2490, 5971, 0, 11}},
		{"LLL5", "rstu10"}:      {16445, stalls{0, 0, 0, 0, 0, 2490, 5971, 0, 11}},
		{"LLL5", "rstu10-2p"}:   {15948, stalls{0, 0, 0, 0, 0, 1991, 5971, 0, 13}},
		{"LLL5", "ruu12-full"}:  {16447, stalls{0, 0, 0, 0, 0, 2490, 5971, 0, 13}},
		{"LLL5", "ruu12-none"}:  {23910, stalls{0, 0, 0, 0, 0, 9944, 5971, 0, 22}},
		{"LLL5", "ruu12-lim"}:   {16447, stalls{0, 0, 0, 0, 0, 2490, 5971, 0, 13}},
		{"LLL5", "reorder12"}:   {26892, stalls{0, 12948, 0, 0, 0, 0, 5971, 0, 0}},
		{"LLL13", "simple"}:     {22001, stalls{0, 11000, 0, 0, 0, 0, 1495, 0, 0}},
		{"LLL13", "tomasulo2"}:  {21756, stalls{0, 0, 0, 10750, 0, 0, 1495, 0, 5}},
		{"LLL13", "tu-dist"}:    {17265, stalls{0, 0, 0, 5993, 0, 250, 1495, 0, 21}},
		{"LLL13", "rspool10"}:   {16265, stalls{0, 0, 0, 4243, 0, 1000, 1495, 0, 21}},
		{"LLL13", "rstu10"}:     {16265, stalls{0, 0, 0, 4993, 0, 250, 1495, 0, 21}},
		{"LLL13", "rstu10-2p"}:  {14767, stalls{0, 0, 0, 3748, 0, 0, 1495, 0, 18}},
		{"LLL13", "ruu12-full"}: {16017, stalls{0, 0, 0, 4994, 0, 0, 1495, 0, 22}},
		{"LLL13", "ruu12-none"}: {17760, stalls{0, 0, 0, 6737, 0, 0, 1495, 0, 22}},
		{"LLL13", "ruu12-lim"}:  {16017, stalls{0, 0, 0, 4994, 0, 0, 1495, 0, 22}},
		{"LLL13", "reorder12"}:  {22001, stalls{0, 11000, 0, 0, 0, 0, 1495, 0, 0}},
	}
	for name, cfg := range configs {
		for _, kn := range []string{"LLL1", "LLL5", "LLL13"} {
			k := livermore.ByName(kn)
			u, err := k.Unit()
			if err != nil {
				t.Fatal(err)
			}
			m, err := ruu.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.NewState()
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(u.Prog, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", kn, name, err)
			}
			got := golden{res.Stats.Cycles, res.Stats.Stalls}
			t.Logf("{%q, %q}: {%d, stalls%#v},", kn, name, got.cycles, got.stalls)
			want, ok := expect[key{kn, name}]
			if !ok {
				t.Errorf("%s/%s: no golden", kn, name)
				continue
			}
			if got != want {
				t.Errorf("%s/%s: %d cycles, stalls %v; golden %d, %v", kn, name, got.cycles, got.stalls, want.cycles, want.stalls)
			}
		}
	}
}
