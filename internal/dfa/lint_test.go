package dfa_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/livermore"
)

// wantRE matches a `; want <rule>` annotation in a fixture comment.
var wantRE = regexp.MustCompile(`[;#]\s*want\s+([a-z-]+)`)

// TestLintFixtures runs the linter over every testdata fixture and
// checks the findings against the fixtures' `; want <rule>` comments,
// bidirectionally: every annotation must be hit on its line, and every
// finding must be annotated.
func TestLintFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			type want struct {
				line int
				rule dfa.Rule
				hit  bool
			}
			var wants []*want
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				r, ok := dfa.RuleByName(m[1])
				if !ok {
					t.Fatalf("%s:%d: unknown rule %q in want annotation", file, i+1, m[1])
				}
				wants = append(wants, &want{line: i + 1, rule: r})
			}
			if len(wants) == 0 {
				t.Fatalf("%s: no want annotations", file)
			}
			u, err := asm.Assemble(string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range dfa.Lint(u.Prog) {
				matched := false
				for _, w := range wants {
					if !w.hit && w.line == f.Line && w.rule == f.Rule {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: want %s, but no finding matched", file, w.line, w.rule)
				}
			}
		})
	}
}

// TestLivermoreLintClean pins that all fourteen kernel sources are free
// of lint findings (the acceptance bar for the rules' strictness).
func TestLivermoreLintClean(t *testing.T) {
	ks := livermore.Kernels()
	if len(ks) != 14 {
		t.Fatalf("got %d kernels, want 14", len(ks))
	}
	for _, k := range ks {
		u, err := k.Unit()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range dfa.Lint(u.Prog) {
			t.Errorf("%s: %s", k.Name, f)
		}
	}
}

// TestExamplesLintClean lints every standalone assembly file under
// examples/, the same corpus `make analyze` gates in CI.
func TestExamplesLintClean(t *testing.T) {
	root := filepath.Join("..", "..", "examples")
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Ext(path) != ".s" {
			return nil
		}
		found++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		u, err := asm.Assemble(string(src))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		for _, f := range dfa.Lint(u.Prog) {
			t.Errorf("%s: %s", path, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no .s files under examples/")
	}
}
