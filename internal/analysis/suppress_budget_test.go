package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
)

// TestSuppressionBudget pins the repo's suppression debt: exactly which
// files carry //ruulint:ok markers, for which passes, and how many.
// A new suppression anywhere — or a silently vanished one — fails this
// test, so spending the budget is a reviewed act (update the table in
// the same commit, with the justification in the marker).
func TestSuppressionBudget(t *testing.T) {
	mod := loadRepo(t)
	got := map[string]int{}
	total := 0
	for _, pkg := range mod.Packages {
		for _, m := range markersIn(pkg) {
			rel, err := filepath.Rel(mod.Dir, m.pos.Filename)
			if err != nil {
				rel = m.pos.Filename
			}
			for _, pass := range m.passes {
				got[fmt.Sprintf("%s %s", filepath.ToSlash(rel), pass)]++
				total++
			}
		}
	}

	// The full budget: 12 justified suppressions, all in the two
	// goroutine-bearing service packages (whose concurrency is
	// individually justified against simdeterminism) and at two
	// audited cold-path allocation sites.
	want := map[string]int{
		"internal/sched/cache.go hotpathalloc":      1,
		"internal/sched/sched.go hotpathalloc":      1,
		"internal/sched/sched.go simdeterminism":    6,
		"internal/server/observe.go simdeterminism": 2,
		"internal/server/server.go simdeterminism":  2,
	}
	wantTotal := 0
	for _, n := range want {
		wantTotal += n
	}
	for key, n := range got {
		if want[key] != n {
			t.Errorf("suppressions for %q: got %d, want %d", key, n, want[key])
		}
	}
	for key, n := range want {
		if got[key] != n {
			t.Errorf("suppressions for %q: got %d, want %d", key, got[key], n)
		}
	}
	if total != wantTotal {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("census: %q: %d,", k, got[k])
		}
		t.Errorf("total suppressions: got %d, want %d", total, wantTotal)
	}
}
