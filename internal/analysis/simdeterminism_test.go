package analysis

import "testing"

func TestSimDeterminismFixtures(t *testing.T) {
	checkWants(t, loadFixture(t, "simdeterminism"), NewSimDeterminism(nil, nil))
	checkWants(t, loadFixture(t, "simdeterminism/engine"),
		NewSimDeterminism(nil, []string{"simdeterminism/engine"}))
}

func TestSimDeterminismScope(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism")
	// Out of scope: a violating package outside the sim prefixes is not
	// this pass's business.
	pass := NewSimDeterminism([]string{"ruu/internal/issue"}, nil)
	if fs := Check([]*Package{pkg}, []*Pass{pass}); len(fs) != 0 {
		t.Errorf("out-of-scope package produced %d findings: %v", len(fs), fs)
	}
	// In scope via prefix match.
	pass = NewSimDeterminism([]string{"simdeterminism"}, nil)
	if fs := Check([]*Package{pkg}, []*Pass{pass}); len(fs) == 0 {
		t.Errorf("in-scope package produced no findings")
	}
	// Outside the engine prefixes the engine fixture's loops are judged
	// by their bodies, and every body there is order-insensitive.
	eng := loadFixture(t, "simdeterminism/engine")
	pass = NewSimDeterminism([]string{"simdeterminism"}, []string{"ruu/internal/issue"})
	if fs := Check([]*Package{eng}, []*Pass{pass}); len(fs) != 0 {
		t.Errorf("engine fixture outside the engine scope produced %d findings: %v", len(fs), fs)
	}
}
