package server

import (
	"net/http"
	"sort"

	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/exec"
	"ruu/internal/livermore"
	"ruu/internal/machine"
)

// POST /v1/analyze is the static pre-screen: the full internal/dfa
// analysis — value-aware program lint (abstract interpretation), the
// hazard census, the static memory-dependence summary, and the
// dataflow-limit oracle (tight and register-only) — without involving
// the scheduler or any pipelined engine. A program with error-severity
// findings (oob-access, uninit-read, ...) is rejected with 422 and the
// findings, so clients can screen submissions before paying for a
// simulation.

// analyzeRequest is the body of POST /v1/analyze: exactly one program
// source, inline assembly or a built-in Livermore kernel name. There
// is no machine block — the analysis uses the default latency model.
type analyzeRequest struct {
	Asm    string `json:"asm,omitempty"`
	Kernel string `json:"kernel,omitempty"`
}

// analyzeFinding is one lint diagnostic in the response, ordered by
// (line, rule, instruction index).
type analyzeFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Line     int    `json:"line"` // source line, 0 when unknown
	Idx      int    `json:"idx"`  // instruction index
	Text     string `json:"text"`
}

// analyzeMemDeps summarises the static memory-dependence edges.
type analyzeMemDeps struct {
	Edges   int `json:"edges"`
	Must    int `json:"must"`
	May     int `json:"may"`
	Carried int `json:"carried"`
}

// analyzeStatic is the purely static program summary (no replay).
type analyzeStatic struct {
	Instructions int            `json:"instructions"`
	Reachable    int            `json:"reachable"`
	Loops        int            `json:"loops"`
	DefUseEdges  int            `json:"def_use_edges"`
	MemDeps      analyzeMemDeps `json:"memdeps"`
}

// analyzeResponse is the body of a successful POST /v1/analyze.
type analyzeResponse struct {
	Program  string           `json:"program"`
	Static   analyzeStatic    `json:"static"`
	Findings []analyzeFinding `json:"findings"`
	Census   dfa.Census       `json:"census"`
	// Bound is the dataflow-limit oracle with the memory-dependence
	// tightening (the default); BoundRegOnly drops it (register
	// dependences only), so the difference is the static win.
	Bound        dfa.Bound `json:"bound"`
	BoundRegOnly dfa.Bound `json:"bound_reg_only"`
}

// analyzeReject is the 422 body when the program fails the pre-screen:
// the error plus every finding (advisory notes included).
type analyzeReject struct {
	Error    string           `json:"error"`
	Findings []analyzeFinding `json:"findings"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}

	var (
		name string
		unit *asm.Unit
		st   *exec.State
		err  error
	)
	switch {
	case req.Asm != "" && req.Kernel != "":
		writeError(w, http.StatusUnprocessableEntity, "asm and kernel are mutually exclusive")
		return
	case req.Asm != "":
		name = "asm"
		unit, err = asm.Assemble(req.Asm)
		if err != nil {
			writeUnprocessable(w, err)
			return
		}
		st = exec.NewState(unit.NewMemory())
	case req.Kernel != "":
		k := livermore.ByName(req.Kernel)
		if k == nil {
			writeError(w, http.StatusUnprocessableEntity, "unknown kernel %q", req.Kernel)
			return
		}
		name = k.Name
		if unit, err = k.Unit(); err == nil {
			st, err = k.NewState()
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	default:
		writeError(w, http.StatusUnprocessableEntity, "need asm or kernel")
		return
	}

	an := dfa.Analyze(unit.Prog)
	ai := an.InterpretState(st)
	findings, nErrors := renderFindings(ai.Lint())
	if nErrors > 0 {
		s.analyzeRejects.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, analyzeReject{
			Error:    "program rejected by static pre-screen",
			Findings: findings,
		})
		return
	}

	deps := ai.MemDeps()
	resp := analyzeResponse{
		Program: name,
		Static: analyzeStatic{
			Instructions: len(unit.Prog.Instructions),
			Reachable:    countTrue(ai.Reached),
			Loops:        len(an.Loops),
			DefUseEdges:  an.DefUseEdges(),
			MemDeps: analyzeMemDeps{
				Edges: len(deps.Edges), Must: deps.Must, May: deps.May, Carried: deps.Carried,
			},
		},
		Findings: findings,
	}

	// The interpretation only read st, so the replay can start from it.
	mc := machine.DefaultConfig()
	dyn, err := dfa.Replay(unit.Prog, st, dfa.BoundConfig{Lat: mc.Lat, FwdLatency: mc.FwdLatency})
	if err == nil && dyn.Census.Trap != nil {
		err = dyn.Census.Trap
	}
	if err != nil {
		s.analyzeRejects.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, analyzeReject{
			Error:    err.Error(),
			Findings: findings,
		})
		return
	}
	resp.Census, resp.Bound, resp.BoundRegOnly = dyn.Census, dyn.Bound, dyn.BoundRegOnly
	writeJSON(w, http.StatusOK, resp)
}

// renderFindings converts lint findings to the response shape, sorted
// by (line, rule, idx), and counts the error-severity ones.
func renderFindings(fs []dfa.Finding) ([]analyzeFinding, int) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Idx < fs[j].Idx
	})
	out := make([]analyzeFinding, 0, len(fs))
	nErrors := 0
	for _, f := range fs {
		if f.Rule.Severity() == dfa.SevError {
			nErrors++
		}
		out = append(out, analyzeFinding{
			Rule:     f.Rule.String(),
			Severity: f.Rule.Severity().String(),
			Line:     f.Line,
			Idx:      f.Idx,
			Text:     f.String(),
		})
	}
	return out, nErrors
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
