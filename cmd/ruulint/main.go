// Command ruulint runs the repository's static-analysis passes
// (internal/analysis) over the module: determinism hygiene in
// simulation packages, obs probe coverage in the issue engines, the
// precise-state mutation discipline, hot-path allocation freedom, enum
// switch exhaustiveness, paper-constant conformance, the service-layer
// concurrency and HTTP-contract passes (mutexguard, ctxflow,
// goroutineleak, httpcontract), the SSA value-flow passes (nilness,
// policycontract), plus the suppression meta-pass.
//
// Usage:
//
//	ruulint ./...              # whole module (the only supported pattern)
//	ruulint -list              # describe the passes
//	ruulint -passes precisestate,probeemit ./...
//	ruulint -json ./...        # one JSON object per finding per line
//	ruulint -out f.json -sarif f.sarif ./...   # machine formats, one load
//	ruulint -timings ./...     # wall-clock summary on stderr
//	ruulint -timings-out t.json ./...          # same summary as JSON
//
// Every run loads the module afresh: its own packages type-check from
// source, and the standard library comes from the compiler's export
// data, which one `go list -export -deps` over the imported standard
// packages finds in (or adds to) the go build cache, so the go command
// must be on PATH. That load takes about 0.36 s on a 2-vCPU host,
// against 3.4 s when the standard library was type-checked from source
// too.
//
// Findings print as file:line:col: [pass] message, relative to the
// working directory; with -json, as one {"pos","pass","msg"} object per
// line. -out writes the JSON lines to a file and -sarif writes a SARIF
// 2.1.0 log (for GitHub code scanning), both from the same single pass
// run as the terminal output. Exit status: 0 clean, 1 findings, 2
// usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ruu/internal/analysis"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list the passes and exit")
		passes = flag.String("passes", "", "comma-separated pass names to run (default: all)")
	)
	out := analysis.RegisterOutputFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruulint [-list] [-json] [-out file] [-sarif file] [-timings] [-timings-out file] [-passes p1,p2] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	if flag.NArg() > 1 || (flag.NArg() == 1 && flag.Arg(0) != "./...") {
		fmt.Fprintf(os.Stderr, "ruulint: only the whole-module pattern ./... is supported\n")
		os.Exit(2)
	}

	if *list {
		// Pass names and docs do not depend on the module path.
		for _, p := range analysis.DefaultPasses("") {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	// One load and one pass run feed every output format below.
	start := time.Now()
	mod, err := analysis.Load(root)
	if err != nil {
		fatal(err)
	}
	loadElapsed := time.Since(start)
	selected, err := selectPasses(analysis.DefaultPasses(mod.Path), *passes)
	if err != nil {
		fatal(err)
	}
	findings, passTimings := analysis.CheckSnapshot(analysis.NewSnapshot(mod.Packages), selected)
	report := analysis.NewTimingsReport("ruulint", time.Since(start), loadElapsed, passTimings, len(findings))

	cwd, _ := os.Getwd()
	if out.Out != "" {
		f, err := os.Create(out.Out)
		if err != nil {
			fatal(err)
		}
		if err := writeJSONLines(f, findings, cwd); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if out.SARIF != "" {
		b, err := analysis.MarshalSARIF(findings, selected, root)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out.SARIF, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if out.JSON {
		if err := writeJSONLines(os.Stdout, findings, cwd); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", relTo(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Pass, f.Message)
		}
	}
	if out.Timings {
		report.Print(os.Stderr)
	}
	if out.TimingsOut != "" {
		if err := report.WriteFile(out.TimingsOut); err != nil {
			fatal(err)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ruulint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the -json line format, one object per finding.
type jsonFinding struct {
	Pos  string `json:"pos"` // file:line:col, relative to the working directory
	Pass string `json:"pass"`
	Msg  string `json:"msg"`
}

// writeJSONLines encodes findings one JSON object per line.
func writeJSONLines(w io.Writer, findings []analysis.Finding, cwd string) error {
	enc := json.NewEncoder(w)
	for _, f := range findings {
		err := enc.Encode(jsonFinding{
			Pos:  fmt.Sprintf("%s:%d:%d", relTo(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column),
			Pass: f.Pass,
			Msg:  f.Message,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// relTo shortens name relative to dir when it lies inside it.
func relTo(dir, name string) string {
	if dir == "" {
		return name
	}
	if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// moduleRoot ascends from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func selectPasses(all []*analysis.Pass, names string) ([]*analysis.Pass, error) {
	if names == "" {
		return all, nil
	}
	byName := map[string]*analysis.Pass{}
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []*analysis.Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (try -list)", n)
		}
		out = append(out, p)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ruulint: %v\n", err)
	os.Exit(2)
}
