package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOutputFlagsCanonical pins the shared flag surface: names,
// defaults, and that two registrations are indistinguishable.
func TestOutputFlagsCanonical(t *testing.T) {
	collect := func(fs *flag.FlagSet) map[string][2]string {
		out := map[string][2]string{}
		fs.VisitAll(func(f *flag.Flag) {
			out[f.Name] = [2]string{f.DefValue, f.Usage}
		})
		return out
	}
	a := flag.NewFlagSet("a", flag.ContinueOnError)
	b := flag.NewFlagSet("b", flag.ContinueOnError)
	RegisterOutputFlags(a)
	RegisterOutputFlags(b)
	fa, fb := collect(a), collect(b)

	wantNames := []string{"json", "out", "sarif", "timings"}
	if len(fa) != len(wantNames) {
		t.Errorf("shared flag set has %d flags, want %d: %v", len(fa), len(wantNames), fa)
	}
	for _, name := range wantNames {
		if _, ok := fa[name]; !ok {
			t.Errorf("shared flag set is missing -%s", name)
		}
		if fa[name] != fb[name] {
			t.Errorf("-%s differs between registrations: %v vs %v", name, fa[name], fb[name])
		}
	}
}

// TestAnalysisCommandsUseSharedFlags is the drift gate at the source
// level: both analysis CLIs must register the machine-output flags
// through RegisterOutputFlags and must not (re)define any of the shared
// names locally.
func TestAnalysisCommandsUseSharedFlags(t *testing.T) {
	local := regexp.MustCompile(`flag\.(Bool|String)\("(json|out|sarif|timings)"`)
	for _, cmd := range []string{"ruulint", "ruudfa"} {
		dir := filepath.Join(repoRoot(t), "cmd", cmd)
		names, err := goFileNames(dir)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		src := ""
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			src += string(data)
		}
		if !strings.Contains(src, "RegisterOutputFlags(") {
			t.Errorf("cmd/%s does not use analysis.RegisterOutputFlags", cmd)
		}
		if m := local.FindString(src); m != "" {
			t.Errorf("cmd/%s defines a shared output flag locally (%s); register it in internal/analysis/cliflags.go instead", cmd, m)
		}
	}
}
