package main

import (
	"strings"
	"testing"
)

// TestReportMarksNewAndRemoved: a comparison names every benchmark of
// either file, so one that only the old file has is reported as
// removed instead of silently dropped, and only ns/op growth beyond the
// threshold counts as a regression.
func TestReportMarksNewAndRemoved(t *testing.T) {
	old := &File{Benchmarks: []Result{
		{Name: "Kept", NsPerOp: 100},
		{Name: "Gone", NsPerOp: 50},
		{Name: "Slower", NsPerOp: 100},
		{Name: "Faster", NsPerOp: 100},
		{Name: "Same", NsPerOp: 100},
	}}
	cur := &File{Benchmarks: []Result{
		{Name: "Kept", NsPerOp: 110},
		{Name: "Slower", NsPerOp: 200},
		{Name: "Faster", NsPerOp: 80},
		{Name: "Same", NsPerOp: 100},
		{Name: "Added", NsPerOp: 10},
	}}
	var out strings.Builder
	if n := report(&out, old, cur, 1.30); n != 1 {
		t.Errorf("report counted %d regression(s), want 1", n)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{"Kept", "Slower", "Faster", "Same", "Added", "Gone", "median ratio", "1 regression(s)"}
	if len(lines) != len(want) {
		t.Fatalf("report printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], prefix)
		}
	}
	for _, c := range []struct{ line, mark string }{
		{lines[1], "REGRESSION"}, {lines[4], "(new)"}, {lines[5], "(removed)"},
	} {
		if !strings.Contains(c.line, c.mark) {
			t.Errorf("line %q lacks %q", c.line, c.mark)
		}
	}
	// Ratios 1.1, 2.0, 0.8 and 1.0 over the four shared benchmarks: the
	// median of an even count is the mean of the middle two, an unchanged
	// time is neither slower nor faster, and new and removed ones do not
	// count.
	if want := "median ratio 1.050 (+5.0%) over 4 shared benchmark(s): 2 slower, 1 faster"; lines[6] != want {
		t.Errorf("drift line = %q, want %q", lines[6], want)
	}
}
