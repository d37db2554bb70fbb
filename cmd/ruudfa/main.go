// Command ruudfa runs the ISA-level dataflow analysis (internal/dfa)
// over assembled programs: the dynamic hazard census (RAW/WAR/WAW
// pairs), the dataflow-limit oracle (the cycle count no engine can
// beat), the static memory-dependence summary, and the program lint —
// the value-free rules (uninitialized reads, dead stores, unreachable
// instructions, loop-dead writes) plus the value-aware rules the
// abstract interpretation enables (oob-access, loop-invariant-load)
// and the executor cross-check (must-alias-violation).
//
// Usage:
//
//	ruudfa                     # all built-in Livermore kernels
//	ruudfa -kernel LLL3        # one built-in kernel
//	ruudfa prog.s other.s      # assembly files
//	ruudfa -json ...           # one JSON object per program per line
//	ruudfa -out f.json ...     # also write the JSON lines to a file
//	ruudfa -sarif f.sarif ...  # also write a SARIF 2.1.0 log
//	ruudfa -timings ...        # per-program wall-clock summary on stderr
//
// The machine-output flag set (-json, -out, -sarif, -timings) is
// shared with ruulint through analysis.RegisterOutputFlags, so the two
// analysis CLIs cannot drift.
//
// Lint findings print as program: severity: position: [rule] message,
// deterministically ordered by (file, line, rule). Exit status: 0
// clean (advisory notes do not gate), 1 error-severity findings, 2
// usage, assembly, or replay error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ruu/internal/analysis"
	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/exec"
	"ruu/internal/livermore"
	"ruu/internal/machine"
	"ruu/internal/report"
)

func main() {
	kernel := flag.String("kernel", "", "analyze one built-in Livermore kernel (LLL1..LLL14)")
	out := analysis.RegisterOutputFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruudfa [-json] [-out file] [-sarif file] [-timings] [-kernel NAME | file.s ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var progs []program
	switch {
	case *kernel != "":
		if flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "ruudfa: -kernel and file arguments are mutually exclusive\n")
			os.Exit(2)
		}
		k := livermore.ByName(*kernel)
		if k == nil {
			fatal(fmt.Errorf("unknown kernel %q", *kernel))
		}
		progs = append(progs, kernelProgram(k))
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			progs = append(progs, fileProgram(path))
		}
	default:
		for _, k := range livermore.Kernels() {
			progs = append(progs, kernelProgram(k))
		}
	}

	mc := machine.DefaultConfig()
	bcfg := dfa.BoundConfig{Lat: mc.Lat, FwdLatency: mc.FwdLatency}

	start := time.Now()
	var results []result
	var perProgram []analysis.PassTiming
	totalFindings := 0
	for _, p := range progs {
		progStart := time.Now()
		r, err := analyze(p, bcfg)
		if err != nil {
			fatal(err)
		}
		results = append(results, r)
		perProgram = append(perProgram, analysis.PassTiming{
			Name: p.name, Findings: len(r.Findings), Elapsed: time.Since(progStart),
		})
		totalFindings += len(r.Findings)
	}
	timRep := analysis.TimingsReport{
		Command: "ruudfa", Total: time.Since(start), Findings: totalFindings, Passes: perProgram,
	}

	if out.SARIF != "" {
		cwd, _ := os.Getwd()
		b, err := marshalSARIF(results, cwd)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out.SARIF, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if out.Out != "" {
		f, err := os.Create(out.Out)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if out.Timings {
		timRep.Print(os.Stderr)
	}

	nErrors, nNotes := 0, 0
	if out.JSON {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
			ne, nn := r.count()
			nErrors += ne
			nNotes += nn
		}
	} else {
		tbl := report.New("ISA dataflow analysis",
			"Program", "Instrs", "RAW", "WAR", "WAW", "Branches", "Taken", "Mem Deps", "Crit Path", "Dataflow Limit")
		for _, r := range results {
			c, b, d := r.Census, r.Bound, r.MemDeps
			tbl.Add(r.Program, c.DynInstrs, c.RAW, c.WAR, c.WAW, c.Branches, c.Taken,
				fmt.Sprintf("%d/%d/%d", d.Must, d.May, d.Carried), b.CritPath, b.Cycles)
		}
		tbl.WriteText(os.Stdout)
		for _, r := range results {
			for _, f := range r.Findings {
				fmt.Printf("%s: %s: %s\n", r.Program, f.Severity, f.Text)
			}
			ne, nn := r.count()
			nErrors += ne
			nNotes += nn
		}
	}
	if nErrors > 0 {
		fmt.Fprintf(os.Stderr, "ruudfa: %d error finding(s), %d note(s)\n", nErrors, nNotes)
		os.Exit(1)
	}
	if nNotes > 0 {
		fmt.Fprintf(os.Stderr, "ruudfa: %d advisory note(s)\n", nNotes)
	}
}

// program is one analyzable input: a name, the file the findings
// locate into (a virtual livermore/NAME.s path for built-in kernels),
// and loaders for its unit and initial state.
type program struct {
	name  string
	file  string
	unit  func() (*asm.Unit, error)
	state func() (*exec.State, error)
}

func kernelProgram(k *livermore.Kernel) program {
	return program{
		name:  k.Name,
		file:  "livermore/" + k.Name + ".s",
		unit:  k.Unit,
		state: k.NewState,
	}
}

func fileProgram(path string) program {
	load := func() (*asm.Unit, error) { return asm.AssembleFile(path) }
	return program{
		name: filepath.Base(path),
		file: path,
		unit: load,
		state: func() (*exec.State, error) {
			u, err := load()
			if err != nil {
				return nil, err
			}
			return exec.NewState(u.NewMemory()), nil
		},
	}
}

// result is the analysis output for one program (also the -json line
// format).
type result struct {
	Program  string        `json:"program"`
	File     string        `json:"file"`
	Census   dfa.Census    `json:"census"`
	Bound    dfa.Bound     `json:"bound"`
	MemDeps  memdepSummary `json:"memdeps"`
	Findings []jsonFinding `json:"findings"`
}

// memdepSummary condenses the static memory-dependence edges.
type memdepSummary struct {
	Edges   int `json:"edges"`
	Must    int `json:"must"`
	May     int `json:"may"`
	Carried int `json:"carried"`
}

type jsonFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Line     int    `json:"line"` // source line, 0 when unknown
	Idx      int    `json:"idx"`  // instruction index
	Text     string `json:"text"`
}

// count returns the result's (error, note) finding tallies.
func (r result) count() (errors, notes int) {
	for _, f := range r.Findings {
		if f.Severity == dfa.SevNote.String() {
			notes++
		} else {
			errors++
		}
	}
	return errors, notes
}

func analyze(p program, bcfg dfa.BoundConfig) (result, error) {
	r := result{Program: p.name, File: p.file, Findings: []jsonFinding{}}
	u, err := p.unit()
	if err != nil {
		return r, err
	}
	st, err := p.state()
	if err != nil {
		return r, err
	}
	ai := dfa.Analyze(u.Prog).InterpretState(st)
	findings := ai.Lint()
	// The cross-check replays the program (consuming st) and reports
	// must-alias-violation when the executor contradicts the static
	// alias classification.
	xfs, err := ai.CrossCheckMemDeps(st, 0)
	if err != nil {
		return r, fmt.Errorf("%s: %w", p.name, err)
	}
	findings = append(findings, xfs...)
	// Deterministic (file, line, rule) order: the file is the program,
	// so within it sort by line, rule, then instruction index for
	// synthesized line-0 entries.
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		if findings[i].Rule != findings[j].Rule {
			return findings[i].Rule < findings[j].Rule
		}
		return findings[i].Idx < findings[j].Idx
	})
	for _, f := range findings {
		r.Findings = append(r.Findings, jsonFinding{
			Rule:     f.Rule.String(),
			Severity: f.Rule.Severity().String(),
			Line:     f.Line,
			Idx:      f.Idx,
			Text:     f.String(),
		})
	}
	d := ai.MemDeps()
	r.MemDeps = memdepSummary{Edges: len(d.Edges), Must: d.Must, May: d.May, Carried: d.Carried}
	st, err = p.state()
	if err != nil {
		return r, err
	}
	r.Census, err = dfa.ComputeCensus(u.Prog, st, 0)
	if err != nil {
		return r, fmt.Errorf("%s: %w", p.name, err)
	}
	if r.Census.Trap != nil {
		return r, fmt.Errorf("%s: census replay trapped: %v", p.name, r.Census.Trap)
	}
	st, err = p.state()
	if err != nil {
		return r, err
	}
	r.Bound, err = dfa.ComputeBound(u.Prog, st, bcfg)
	if err != nil {
		return r, fmt.Errorf("%s: %w", p.name, err)
	}
	if r.Bound.Trap != nil {
		return r, fmt.Errorf("%s: bound replay trapped: %v", p.name, r.Bound.Trap)
	}
	return r, nil
}

// marshalSARIF renders every finding across all results as one SARIF
// 2.1.0 log via the shared writer. Results are ordered by (file, line,
// rule) so the log is byte-stable across runs.
func marshalSARIF(results []result, root string) ([]byte, error) {
	var rules []analysis.SARIFRule
	for r := dfa.Rule(0); r < dfa.NumRules; r++ {
		rules = append(rules, analysis.SARIFRule{ID: r.String(), Doc: r.Doc()})
	}
	var out []analysis.SARIFResult
	for _, r := range results {
		for _, f := range r.Findings {
			level := "error"
			if f.Severity == dfa.SevNote.String() {
				level = "note"
			}
			out = append(out, analysis.SARIFResult{
				RuleID:  f.Rule,
				Level:   level,
				Message: f.Text,
				URI:     r.File,
				Line:    f.Line,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].URI != out[j].URI {
			return out[i].URI < out[j].URI
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].RuleID < out[j].RuleID
	})
	return analysis.MarshalSARIFLog("ruudfa", rules, out, root)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ruudfa: %v\n", err)
	os.Exit(2)
}
