package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"ruu"
	"ruu/internal/dfa"
	"ruu/internal/machine"
)

// This file is the output check: every reply is reduced to per-item
// digests while the loop runs, and compared after the timed window with
// the serial library path — a zero ruu.Runner, which uses no pool, key,
// cache or store, so a key collision or a stale store entry shows up as
// a mismatch.

// outcome is the checked, compact form of one reply item.
type outcome struct {
	digest [sha256.Size]byte
	instr  int64 // simulated instructions (0 for an analysis)
}

// analysis is the part of a /v1/analyze reply fixed by the program:
// the hazard census and the two dataflow-limit bounds.
type analysis struct {
	Census       dfa.Census `json:"census"`
	Bound        dfa.Bound  `json:"bound"`
	BoundRegOnly dfa.Bound  `json:"bound_reg_only"`
}

func digest(v any) [sha256.Size]byte { return sha256.Sum256(mustJSON(v)) }

// simOutcome decodes one outcome and checks it is verified.
func simOutcome(raw json.RawMessage) (outcome, string) {
	if len(raw) == 0 || bytes.Equal(raw, []byte("null")) {
		return outcome{}, "missing outcome"
	}
	var so ruu.SimOutcome
	if err := json.Unmarshal(raw, &so); err != nil {
		return outcome{}, "bad outcome: " + err.Error()
	}
	if !so.Verified {
		return outcome{}, "unverified outcome"
	}
	return outcome{digest: digest(so), instr: so.Instructions}, ""
}

// parseReply reduces a 2xx reply body to per-item outcomes, or returns
// why it is malformed: a missing, extra, erroneous or out-of-order
// NDJSON line, an undecodable body, or an unverified outcome.
func parseReply(o *op, body []byte) ([]outcome, string) {
	switch o.path {
	case "/v1/analyze":
		var a analysis
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, "bad analysis: " + err.Error()
		}
		return []outcome{{digest: digest(a)}}, ""
	case "/v1/simulate":
		var r struct {
			Outcome json.RawMessage `json:"outcome"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, "bad reply: " + err.Error()
		}
		out, fail := simOutcome(r.Outcome)
		if fail != "" {
			return nil, fail
		}
		return []outcome{out}, ""
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(o.items) {
		return nil, fmt.Sprintf("%d NDJSON lines for %d items", len(lines), len(o.items))
	}
	outs := make([]outcome, len(lines))
	for i, ln := range lines {
		var l struct {
			Index   int             `json:"index"`
			Outcome json.RawMessage `json:"outcome"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(ln, &l); err != nil {
			return nil, fmt.Sprintf("line %d: %v", i, err)
		}
		if l.Index != i {
			return nil, fmt.Sprintf("line %d carries index %d", i, l.Index)
		}
		if l.Error != "" {
			return nil, fmt.Sprintf("item %d: %s", i, l.Error)
		}
		out, fail := simOutcome(l.Outcome)
		if fail != "" {
			return nil, fmt.Sprintf("item %d: %s", i, fail)
		}
		outs[i] = out
	}
	return outs, ""
}

// analyzeProgram runs the /v1/analyze pipeline on the library path:
// abstract interpretation and lint (an error finding is a rejection),
// the census replay and both bounds.
func analyzeProgram(u *ruu.Unit) (analysis, error) {
	ai := dfa.Analyze(u.Prog).InterpretState(ruu.NewState(u))
	for _, f := range ai.Lint() {
		if f.Rule.Severity() == dfa.SevError {
			return analysis{}, fmt.Errorf("pre-screen rejects: %s", f)
		}
	}
	_ = ai.MemDeps() // part of the reply's static summary, not of the checked fields
	var a analysis
	var err error
	if a.Census, err = dfa.ComputeCensus(u.Prog, ruu.NewState(u), 0); err != nil {
		return a, err
	}
	mc := machine.DefaultConfig()
	bcfg := dfa.BoundConfig{Lat: mc.Lat, FwdLatency: mc.FwdLatency}
	if a.Bound, err = dfa.ComputeBound(u.Prog, ruu.NewState(u), bcfg); err != nil {
		return a, err
	}
	bcfg.NoMemDep = true
	a.BoundRegOnly, err = dfa.ComputeBound(u.Prog, ruu.NewState(u), bcfg)
	return a, err
}

// reference computes the serial library result one reply item must
// match.
func reference(cfgs []tableConfig, key refKey) ([sha256.Size]byte, error) {
	u, err := key.prog.Unit()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	if key.cfg < 0 {
		a, err := analyzeProgram(u)
		return digest(a), err
	}
	out, err := (&ruu.Runner{}).RunProgram(context.Background(), cfgs[key.cfg].config(), u, true)
	return digest(out), err
}

// refKey identifies one reference result; cfg -1 is the program's
// analysis.
type refKey struct {
	cfg  int
	prog *program
}

// keys lists the reference each outcome of a reply to o must match.
func (o *op) keys() []refKey {
	if o.analyze != nil {
		return []refKey{{cfg: -1, prog: o.analyze}}
	}
	ks := make([]refKey, len(o.items))
	for i, it := range o.items {
		ks[i] = refKey{cfg: it.cfg, prog: it.prog}
	}
	return ks
}

// checkRecords compares every well-formed record with its references,
// taken from known or computed once each on workers goroutines, and
// marks mismatches as failures. It returns the failure count by reason.
func checkRecords(cfgs []tableConfig, recs []record, workers int, known map[refKey][sha256.Size]byte) map[string]int {
	refs := map[refKey][sha256.Size]byte{}
	for k, d := range known {
		refs[k] = d
	}
	var todo []refKey
	for i := range recs {
		if recs[i].fail != "" {
			continue
		}
		for _, k := range recs[i].keys {
			if _, ok := refs[k]; !ok {
				refs[k] = [sha256.Size]byte{}
				todo = append(todo, k)
			}
		}
	}
	errs := map[refKey]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan refKey)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				d, err := reference(cfgs, k)
				mu.Lock()
				refs[k], errs[k] = d, err
				mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		next <- k
	}
	close(next)
	wg.Wait()

	reasons := map[string]int{}
	for i := range recs {
		rec := &recs[i]
		if rec.fail == "" {
			for j, k := range rec.keys {
				if err := errs[k]; err != nil {
					rec.fail = "reference failed: " + err.Error()
				} else if rec.outs[j].digest != refs[k] {
					rec.fail = "outcome differs from the serial reference"
				}
				if rec.fail != "" {
					break
				}
			}
		}
		if rec.fail != "" {
			reasons[rec.fail]++
		}
	}
	return reasons
}

// topReasons renders the most frequent failure reasons for a log line.
func topReasons(reasons map[string]int, n int) []string {
	var rs []string
	for r := range reasons {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool {
		return reasons[rs[i]] > reasons[rs[j]] || (reasons[rs[i]] == reasons[rs[j]] && rs[i] < rs[j])
	})
	if len(rs) > n {
		rs = rs[:n]
	}
	for i, r := range rs {
		rs[i] = fmt.Sprintf("%dx %s", reasons[r], r)
	}
	return rs
}
