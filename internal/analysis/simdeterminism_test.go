package analysis

import "testing"

func TestSimDeterminismFixtures(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism")
	checkWants(t, pkg, NewSimDeterminism())
}

func TestSimDeterminismScope(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism")
	// Out of scope: a violating package outside the sim prefixes is not
	// this pass's business.
	pass := NewSimDeterminism("ruu/internal/issue")
	if fs := Check([]*Package{pkg}, []*Pass{pass}); len(fs) != 0 {
		t.Errorf("out-of-scope package produced %d findings: %v", len(fs), fs)
	}
	// In scope via prefix match.
	pass = NewSimDeterminism("simdeterminism")
	if fs := Check([]*Package{pkg}, []*Pass{pass}); len(fs) == 0 {
		t.Errorf("in-scope package produced no findings")
	}
}
