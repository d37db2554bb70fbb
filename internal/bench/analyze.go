package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"ruu"
	"ruu/internal/asm"
	"ruu/internal/dfa"
	"ruu/internal/isa"
	"ruu/internal/progsynth"
	"ruu/internal/server"
)

// synthOptions bound the generated programs: the shape ruusim -synth
// and perfbench's synth-cold workload draw.
var synthOptions = progsynth.Options{Nested: true, CondBranches: true}

// synthPrologue is the length of progsynth's fixed set-up: A6, then
// A1-A5 and every S register loaded with immediates.
const synthPrologue = 6 + isa.NumS

// AnalyzeCorpus returns n POST /v1/analyze request bodies, a pure
// function of seed. Each is a fresh progsynth program rendered as
// assembly, as perfbench's synth-cold renders it: the disassembly with
// labelled branch targets, then the program's data window as .word
// directives. Even draws are first rewritten to pass the value-free
// pre-screen (screenClean), as synth-cold's are; odd draws are sent as
// generated, so the pre-screen rejects most of them.
func AnalyzeCorpus(seed int64, n int) [][]byte {
	r := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, n)
	for i := range bodies {
		s := r.Int63()
		p := progsynth.Generate(s, synthOptions)
		if i%2 == 0 {
			if clean, ok := screenClean(p); ok {
				p = clean
			}
		}
		body, err := json.Marshal(map[string]string{"asm": synthSource(p, s)})
		if err != nil {
			panic(err)
		}
		bodies[i] = body
	}
	return bodies
}

// screenClean rewrites a progsynth program until the value-free lint
// has no findings. Generated programs rely on zero-filled registers and
// leave dead writes, so every register read before any write is set
// right after the prologue, and every dead write becomes a nop. It
// reports false when other findings remain.
func screenClean(p *isa.Program) (*isa.Program, bool) {
	ins := append([]isa.Instruction(nil), p.Instructions...)
	for round := 0; round < 8; round++ {
		fs := dfa.Lint(&isa.Program{Instructions: ins})
		if len(fs) == 0 {
			return &isa.Program{Instructions: ins}, true
		}
		var inits []isa.Instruction
		seen := map[isa.Reg]bool{}
		for _, f := range fs {
			switch {
			case f.Rule == dfa.RuleDeadStore || f.Rule == dfa.RuleLoopDeadWrite:
				ins[f.Idx] = isa.Instruction{Op: isa.Nop}
			case f.Rule == dfa.RuleUninitRead:
				if !seen[f.Reg] {
					seen[f.Reg] = true
					inits = append(inits, initReg(f.Reg))
				}
			default:
				return nil, false
			}
		}
		if len(inits) > 0 {
			for i := range ins {
				if ins[i].Op.IsBranch() && ins[i].Imm >= synthPrologue {
					ins[i].Imm += int64(len(inits))
				}
			}
			ins = append(ins[:synthPrologue], append(inits, ins[synthPrologue:]...)...)
		}
	}
	return nil, false
}

// initReg writes r from a register the prologue already set.
func initReg(r isa.Reg) isa.Instruction {
	switch r.File {
	case isa.FileA:
		return isa.Instruction{Op: isa.LoadAImm, I: r.Idx}
	case isa.FileS:
		return isa.Instruction{Op: isa.LoadSImm, I: r.Idx}
	case isa.FileB:
		return isa.Instruction{Op: isa.MovBA, I: 6, Imm: int64(r.Idx)}
	default:
		return isa.Instruction{Op: isa.MovTS, I: 0, Imm: int64(r.Idx)}
	}
}

// synthSource renders p, generated from seed, as assembly: every branch
// target gets a label, and the data window follows as .word directives.
func synthSource(p *isa.Program, seed int64) string {
	labeled := *p
	labeled.Labels = map[string]int{}
	for _, ins := range p.Instructions {
		if ins.Op.IsBranch() {
			labeled.Labels[fmt.Sprintf("L%d", ins.Imm)] = int(ins.Imm)
		}
	}
	st := progsynth.NewState(seed, synthOptions)
	var b strings.Builder
	b.WriteString(asm.Disassemble(&labeled))
	fmt.Fprintf(&b, "    .base %d\n", progsynth.DataBase)
	for w := int64(0); w < 64; w++ {
		fmt.Fprintf(&b, "    .word d%d %d\n", w, st.Mem.Peek(progsynth.DataBase+w))
	}
	return b.String()
}

// analyzeBenchPrograms is the size of benchAnalyzeRequest's corpus.
const analyzeBenchPrograms = 64

// benchAnalyzeRequest posts a fixed, seeded corpus of generated
// programs (AnalyzeCorpus) through the real /v1/analyze handler once
// per iteration: JSON decode, assembly, the static analysis, the lint
// pre-screen and, for the programs it accepts, the census and both
// dataflow bounds.
func benchAnalyzeRequest(b B, n int) {
	b.Helper()
	bodies := AnalyzeCorpus(1, analyzeBenchPrograms)
	r := ruu.NewRunner(ruu.RunnerConfig{Workers: 1, CacheEntries: -1})
	defer r.Close()
	h := server.New(server.Config{Runner: r}).Handler()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
			if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
				b.Fatalf("analyze = %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.ReportMetric(float64(n*len(bodies))/b.Elapsed().Seconds(), "programs/s")
}
