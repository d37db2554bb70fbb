package analysis

import (
	"path/filepath"
	"testing"
)

func TestPreciseStateFixtures(t *testing.T) {
	pkg := loadFixture(t, "precisestate")
	allow := Allowlist{"precisestate": {"commit"}}
	checkWants(t, pkg, NewPreciseState(allow))
}

func TestPreciseStateEmptyAllowlist(t *testing.T) {
	pkg := loadFixture(t, "precisestate")
	// With no allowlist even commit is flagged: the set is closed by
	// configuration, not by naming convention.
	findings := Check([]*Package{pkg}, []*Pass{NewPreciseState(nil)})
	inCommit := 0
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) == "clean.go" {
			inCommit++
		}
	}
	if inCommit != 2 || len(findings) != 9 {
		// 3 in dispatch, 1 in writeback, 1 in scribble, 2 in shadowCheck
		// (bad.go) + 2 in commit (clean.go).
		t.Errorf("empty allowlist: got %d findings, want 9: %v", len(findings), findings)
	}
}

func TestEngineTypeDetection(t *testing.T) {
	pkg := loadFixture(t, "precisestate")
	got := engineTypeNames(pkg)
	if len(got) != 1 || got[0] != "Engine" {
		t.Fatalf("engineTypeNames = %v, want [Engine] (Shell lacks Drained)", got)
	}
}
