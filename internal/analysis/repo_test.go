package analysis

import (
	"os/exec"
	"testing"
)

// TestRepoTreeClean is the gate the Makefile's lint target enforces:
// the real tree must carry zero findings, so every convention the
// passes encode is live, not aspirational.
func TestRepoTreeClean(t *testing.T) {
	mod := loadRepo(t)
	if mod.Path != "ruu" {
		t.Fatalf("module path = %q, want ruu", mod.Path)
	}
	if len(mod.Packages) < 15 {
		t.Fatalf("loaded only %d packages; loader is skipping the tree", len(mod.Packages))
	}
	for _, f := range Check(mod.Packages, DefaultPasses(mod.Path)) {
		t.Errorf("finding on the real tree: %s", f)
	}
}

// TestRuulintCommandExitsZero runs the actual CLI over the real tree.
func TestRuulintCommandExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go run subprocess")
	}
	root := repoRoot(t)
	cmd := exec.Command("go", "run", "./cmd/ruulint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ruulint ./... failed: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("ruulint ./... produced output on a clean tree:\n%s", out)
	}
}
