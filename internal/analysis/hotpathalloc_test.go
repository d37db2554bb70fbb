package analysis

import "testing"

// fixtureHotConfig wires the hotpathalloc pass to the fixture package's
// own cycle driver, mirroring the shape of the repo defaults.
func fixtureHotConfig() HotPathConfig {
	return HotPathConfig{
		Roots:     []HotRoot{{Pkg: "hotpathalloc", Recv: "Machine", Func: "Run", LoopOnly: true}},
		Scope:     []string{"hotpathalloc"},
		ColdTypes: []string{"Trap"},
		ColdFuncs: []string{"Flush"},
	}
}

func TestHotPathAllocFixtures(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc")
	checkWants(t, pkg, NewHotPathAlloc(fixtureHotConfig()))
}

func TestHotPathAllocScope(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc")
	cfg := fixtureHotConfig()
	// Reachable code outside the scope prefixes is not reported.
	cfg.Scope = []string{"ruu/internal/issue"}
	if fs := Check([]*Package{pkg}, []*Pass{NewHotPathAlloc(cfg)}); len(fs) != 0 {
		t.Errorf("out-of-scope package produced %d findings: %v", len(fs), fs)
	}
	// With no root resolving, nothing is hot.
	cfg = fixtureHotConfig()
	cfg.Roots = []HotRoot{{Pkg: "hotpathalloc", Recv: "Machine", Func: "NoSuchFunc", LoopOnly: true}}
	if fs := Check([]*Package{pkg}, []*Pass{NewHotPathAlloc(cfg)}); len(fs) != 0 {
		t.Errorf("rootless graph produced %d findings: %v", len(fs), fs)
	}
}

// TestCallGraph checks the dataflow layer directly: static edges,
// interface dispatch, loop-rooted hotness, and cold boundaries.
func TestCallGraph(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc")
	g := BuildCallGraph([]*Package{pkg})

	run := g.Lookup("hotpathalloc", "Machine", "Run")
	if run == nil {
		t.Fatal("Lookup did not find (*Machine).Run")
	}
	hot := g.Hot([]HotRoot{{Pkg: "hotpathalloc", Recv: "Machine", Func: "Run", LoopOnly: true}}, []string{"Flush"})

	if hot[run] {
		t.Error("a LoopOnly root must not itself be in the hot set")
	}
	step := g.Lookup("hotpathalloc", "engine", "Step")
	if step == nil || !hot[step] {
		t.Error("interface dispatch from the cycle loop did not mark (*engine).Step hot")
	}
	box := g.Lookup("hotpathalloc", "engine", "box")
	if box == nil || !hot[box] {
		t.Error("static call from a hot method did not mark (*engine).box hot")
	}
	setup := g.Lookup("hotpathalloc", "Machine", "setupCold")
	if setup == nil || hot[setup] {
		t.Error("pre-loop setup must stay cold under a LoopOnly root")
	}
	flush := g.Lookup("hotpathalloc", "engine", "Flush")
	if flush == nil || hot[flush] {
		t.Error("Flush must be a cold traversal boundary")
	}
	cold := g.Lookup("hotpathalloc", "", "coldHelper")
	if cold == nil || hot[cold] {
		t.Error("unreachable function must stay cold")
	}
}
