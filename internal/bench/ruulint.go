package bench

import (
	"os"
	"path/filepath"
	"sync"

	"ruu/internal/analysis"
)

// The ruulint benchmarks track the analyzer fast path in the
// BENCH_*.json trajectory. Ruulint's ns/op is the cost of one full
// lint invocation (load + shared snapshot + every pass); the old
// `make lint` paid that twice (one text run, one JSON run), so the
// single-invocation Makefile is a structural ≥2× wall-clock
// improvement, and any regression in the shared-snapshot machinery
// shows up here as ruulint_ns growth. RuulintCheckOnly isolates the
// pass-execution phase off a cached load, which is what the shared
// snapshot (one callgraph for every pass) actually optimises.

var (
	lintModOnce sync.Once
	lintMod     *analysis.Module
	lintModErr  error
)

// lintModule loads the repository once for the lint benchmarks.
func lintModule(b B) *analysis.Module {
	root := moduleRootDir(b)
	lintModOnce.Do(func() { lintMod, lintModErr = analysis.Load(root) })
	if lintModErr != nil {
		b.Fatal(lintModErr)
	}
	return lintMod
}

// benchRuulint is one full ruulint invocation per iteration: module
// load, snapshot, every default pass.
func benchRuulint(b B, n int) {
	b.Helper()
	var findings int
	for i := 0; i < n; i++ {
		mod, err := analysis.Load(moduleRootDir(b))
		if err != nil {
			b.Fatal(err)
		}
		fs, _ := analysis.CheckSnapshot(analysis.NewSnapshot(mod.Packages), analysis.DefaultPasses(mod.Path))
		findings = len(fs)
	}
	if findings != 0 {
		b.Fatalf("lint benchmark found %d findings on the tree", findings)
	}
}

// benchRuulintCheckOnly reuses one loaded module and measures the pass
// run alone, sharing a fresh snapshot (and thus one callgraph build)
// across all passes each iteration.
func benchRuulintCheckOnly(b B, n int) {
	b.Helper()
	mod := lintModule(b)
	b.ResetTimer()
	var findings int
	for i := 0; i < n; i++ {
		fs, _ := analysis.CheckSnapshot(analysis.NewSnapshot(mod.Packages), analysis.DefaultPasses(mod.Path))
		findings = len(fs)
	}
	if findings != 0 {
		b.Fatalf("lint benchmark found %d findings on the tree", findings)
	}
}

// moduleRootDir resolves the repo root without caching the load.
func moduleRootDir(b B) string {
	dir, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			b.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}
