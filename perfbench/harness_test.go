package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"ruu"
)

func TestPercentileTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if v, beyond := percentile(xs, 0.9); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v := median(xs); v != 50 {
		t.Errorf("median of 1..100 = %v, want 50", v)
	}
	if _, beyond := percentile(xs[:99], 0.9); beyond >= 10 {
		t.Errorf("99 samples leave %d beyond p90; a p90 needs 100 samples for 10", beyond)
	}
	if v, beyond := percentile(nil, 0.9); v != 0 || beyond != 0 {
		t.Errorf("empty percentile = %v, %d", v, beyond)
	}
}

func TestUnionNS(t *testing.T) {
	iv := [][2]int64{{10, 20}, {0, 5}, {15, 30}, {40, 41}, {18, 19}}
	if got := unionNS(iv); got != 5+20+1 {
		t.Errorf("unionNS = %d, want 26", got)
	}
}

// batchReply renders the NDJSON body the server sends for o, from the
// serial reference outcomes, with edit applied to each line first.
func batchReply(t *testing.T, cfgs []tableConfig, o *op, edit func(i int, line map[string]any)) []byte {
	t.Helper()
	var b bytes.Buffer
	for i, it := range o.items {
		u, err := it.prog.Unit()
		if err != nil {
			t.Fatal(err)
		}
		out, err := (&ruu.Runner{}).RunProgram(context.Background(), cfgs[it.cfg].config(), u, true)
		if err != nil {
			t.Fatal(err)
		}
		line := map[string]any{"index": i, "outcome": out}
		if edit != nil {
			edit(i, line)
		}
		b.Write(mustJSON(line))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkOne parses body as the reply to o and runs the output check,
// returning the failure reasons.
func checkOne(cfgs []tableConfig, o *op, body []byte) map[string]int {
	rec := record{keys: o.keys()}
	rec.outs, rec.fail = parseReply(o, body)
	return checkRecords(cfgs, []record{rec}, 2, nil)
}

func TestOutputCheckCountsFailures(t *testing.T) {
	cfgs := paperConfigs()
	ks := kernelPrograms()[:3]
	o := batchOp(cfgs, []item{{cfg: 0, prog: ks[0]}, {cfg: 0, prog: ks[1]}, {cfg: 0, prog: ks[2]}})

	if r := checkOne(cfgs, &o, batchReply(t, cfgs, &o, nil)); len(r) != 0 {
		t.Fatalf("correct reply failed the check: %v", r)
	}
	cases := map[string]func(i int, line map[string]any){
		"corrupted outcome": func(i int, line map[string]any) {
			if i == 1 {
				out := line["outcome"].(ruu.SimOutcome)
				out.Cycles++
				line["outcome"] = out
			}
		},
		"unverified outcome": func(i int, line map[string]any) {
			if i == 2 {
				out := line["outcome"].(ruu.SimOutcome)
				out.Verified = false
				line["outcome"] = out
			}
		},
		"error line": func(i int, line map[string]any) {
			if i == 0 {
				delete(line, "outcome")
				line["error"] = "verify: registers differ"
			}
		},
		"out of order": func(i int, line map[string]any) { line["index"] = 2 - i },
	}
	for name, edit := range cases {
		r := checkOne(cfgs, &o, batchReply(t, cfgs, &o, edit))
		n := 0
		for _, c := range r {
			n += c
		}
		if n != 1 {
			t.Errorf("%s: %d failures counted (%v), want 1", name, n, r)
		}
	}
	body := batchReply(t, cfgs, &o, nil)
	if r := checkOne(cfgs, &o, body[:bytes.IndexByte(body, '\n')+1]); len(r) != 1 {
		t.Errorf("truncated stream: %v, want one failure", r)
	}
}

// TestExhaustedWindowIsIncorrect checks that a window whose clients ran
// out of tasks before the deadline fails the run even when every reply
// is right.
func TestExhaustedWindowIsIncorrect(t *testing.T) {
	cfgs := paperConfigs()
	o := batchOp(cfgs, []item{{cfg: 0, prog: kernelPrograms()[0]}})
	rec := record{keys: o.keys()}
	rec.outs, rec.fail = parseReply(&o, batchReply(t, cfgs, &o, nil))
	s := &session{w: workloads["synth-cold"], c: &corpus{}, in: &inputs{configs: cfgs}}
	if res := s.check([]record{rec}, nil, nil, false); !res.Correct || res.Failed != 0 {
		t.Fatalf("full window: %+v, want correct", res)
	}
	if res := s.check([]record{rec}, nil, nil, true); res.Correct {
		t.Errorf("exhausted window reported correct")
	}
}

func TestOutputCheckAnalysis(t *testing.T) {
	cfgs := paperConfigs()
	items, _ := synthItems(7, 1)
	p := items[0].prog
	o := analyzeOp(p)
	u, err := p.Unit()
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyzeProgram(u)
	if err != nil {
		t.Fatal(err)
	}
	if r := checkOne(cfgs, &o, mustJSON(a)); len(r) != 0 {
		t.Fatalf("correct analysis failed the check: %v", r)
	}
	a.Bound.Cycles++
	if r := checkOne(cfgs, &o, mustJSON(a)); len(r) != 1 {
		t.Errorf("wrong bound passed the check: %v", r)
	}
}

// requestBytes renders the first n tasks of a sequence as the bytes the
// server would receive.
func requestBytes(in *inputs, n int64) []byte {
	var b bytes.Buffer
	for i := int64(0); i < n && i < in.limit; i++ {
		for _, o := range in.task(i) {
			fmt.Fprintf(&b, "POST %s\n%s\n", o.path, o.body)
		}
	}
	return b.Bytes()
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) *inputs{
		"paper-sweep": paperSweepInputs,
		"synth-cold": func(seed int64) *inputs {
			items, _ := synthItems(seed, 40)
			return synthColdInputs(items)
		},
		"restart-warm": restartWarmInputs,
	}
	for name, gen := range gens {
		// 1200 tasks span a whole round of restart-warm's six sweeps.
		a, b, c := requestBytes(gen(11), 1200), requestBytes(gen(11), 1200), requestBytes(gen(12), 1200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 11 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 generate the same requests", name)
		}
		if !json.Valid(gen(11).task(0)[0].body) {
			t.Errorf("%s: request body is not JSON", name)
		}
	}
}

func TestPaperSweepCoversAllConfigurations(t *testing.T) {
	in := paperSweepInputs(3)
	seen := map[string]bool{}
	for i := int64(0); i < int64(len(in.configs)); i++ {
		seen[string(in.task(i)[0].body)] = true
	}
	if len(seen) != 73 || len(in.configs) != 73 {
		t.Errorf("one round of paper-sweep sends %d distinct batches over %d configurations, want 73", len(seen), len(in.configs))
	}
}

// TestRestartWarmSendsTheSweeps checks one round of restart-warm: each
// of Tables 2-7 once, each sweep the baseline and then the table's
// sizes, every working-set item and nothing else, and a first sweep
// exactly the size of the memory cache.
func TestRestartWarmSendsTheSweeps(t *testing.T) {
	cfgs, sweeps := paperSweeps()
	if len(cfgs) != 74 || len(sweeps) != 6 {
		t.Fatalf("%d configurations, %d sweeps; want 74 (73 + Table 7's speculative baseline) and 6", len(cfgs), len(sweeps))
	}
	for _, sw := range sweeps {
		if c := cfgs[sw[0]]; c.Engine != ruu.EngineSimple || c.Speculate != cfgs[sw[1]].Speculate {
			t.Errorf("sweep of Table %d starts with %+v, not its baseline", cfgs[sw[1]].Table, c)
		}
	}
	ws := workingSet()
	want := map[string]bool{}
	for _, it := range ws {
		want[string(simulateOp(cfgs, it).body)] = true
	}
	in := restartWarmInputs(5)
	sent := map[string]int{}
	round := int64(0)
	for _, sw := range sweeps {
		round += int64(len(sw) * len(kernelPrograms()))
	}
	for i := int64(0); i < round; i++ {
		o := in.task(i)[0]
		if o.path != "/v1/simulate" || !want[string(o.body)] {
			t.Fatalf("task %d: %s %s is not a working-set item", i, o.path, o.body)
		}
		sent[string(o.body)]++
	}
	if len(sent) != len(ws) || len(ws) != 74*14 {
		t.Errorf("a round sends %d of %d working-set items; want all %d", len(sent), len(ws), 74*14)
	}
	if int(round)/len(sweeps) != warmCache {
		t.Errorf("a sweep is %d items, the memory cache %d", int(round)/len(sweeps), warmCache)
	}
}

func TestSynthItemsPassThePreScreen(t *testing.T) {
	items, refs := synthItems(5, 30)
	if len(items) != 30 || len(refs) != 30 {
		t.Fatalf("synthItems gave %d items, %d references; want 30", len(items), len(refs))
	}
	// Drawing stops early; the draws kept must not depend on how many
	// goroutines drew them.
	procs := runtime.GOMAXPROCS(1)
	serial, _ := synthItems(5, 30)
	runtime.GOMAXPROCS(procs)
	for i := range items {
		if items[i].prog.src != serial[i].prog.src || items[i].cfg != serial[i].cfg {
			t.Fatalf("draw %d differs between GOMAXPROCS %d and 1", i, procs)
		}
	}
	ids := map[string]bool{}
	for _, it := range items {
		p := it.prog
		if ids[p.id] {
			t.Errorf("program %s repeats", p.id)
		}
		ids[p.id] = true
		u, err := p.Unit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analyzeProgram(u); err != nil {
			t.Errorf("%s: %v", p.id, err)
		}
	}
}
