// Package progsynth generates random, always-terminating programs for
// property-based testing: every issue engine must finish a synthesized
// program with exactly the architectural state the functional executor
// produces, under any configuration.
//
// Generated programs are structured: straight-line blocks of random
// computational, move, and memory instructions, wrapped in counted loops
// (countdown in A0, the only branch-testable A register), with optional
// nested loops (the outer count parked in B63) and forward conditional
// branches over short blocks. Memory operations address a dedicated data
// window through base register A6, which generated code never writes, so
// no synthesized program can fault.
package progsynth

import (
	"math/rand"

	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/memsys"
)

// Options bounds the generator.
type Options struct {
	// MaxLoops is the number of top-level counted loops (default 3).
	MaxLoops int
	// MaxBodyLen is the maximum instructions per loop body (default 20).
	MaxBodyLen int
	// MaxTrip is the maximum loop trip count (default 30).
	MaxTrip int
	// Nested enables one level of loop nesting (default true when zero
	// value is used via Generate).
	Nested bool
	// CondBranches enables forward conditional branches inside bodies.
	CondBranches bool
	// DataWords is the size of the addressable data window (default 64).
	DataWords int
}

func (o *Options) fill() {
	if o.MaxLoops <= 0 {
		o.MaxLoops = 3
	}
	if o.MaxBodyLen <= 0 {
		o.MaxBodyLen = 20
	}
	if o.MaxTrip <= 0 {
		o.MaxTrip = 30
	}
	if o.DataWords <= 0 {
		o.DataWords = 64
	}
}

// DataBase is the base address of the generated programs' data window;
// A6 holds it throughout.
const DataBase = 4096

// Generate synthesizes a program from the seed. Equal seeds yield equal
// programs.
func Generate(seed int64, opts Options) *isa.Program {
	return GenerateRand(rand.New(rand.NewSource(seed)), opts)
}

// GenerateRand synthesizes a program drawing randomness from r. The
// caller owns the source: equal sources (same seed, same position)
// yield equal programs, and threading one source through several
// generator calls keeps a whole test campaign reproducible from a
// single seed.
func GenerateRand(r *rand.Rand, opts Options) *isa.Program {
	opts.fill()
	g := &gen{r: r, o: opts}
	return g.program()
}

// NewState returns an architectural state with the data window
// initialised deterministically from the seed. A6 is zero until the
// generated prologue points it at the window.
//
// The seed is perturbed before use so that the data window and the
// program drawn from the same seed are decorrelated; NewStateRand with
// an explicitly positioned source skips the perturbation.
func NewState(seed int64, opts Options) *exec.State {
	return NewStateRand(rand.New(rand.NewSource(seed^0x5eed)), opts)
}

// NewStateRand returns an architectural state with the data window
// drawn from r. A6 is zero until the generated prologue points it at
// the window. The caller owns the source.
func NewStateRand(r *rand.Rand, opts Options) *exec.State {
	opts.fill()
	mem := memsys.NewMemory(0)
	for i := 0; i < opts.DataWords; i++ {
		mem.Poke(DataBase+int64(i), r.Int63n(1<<20)-1<<19)
	}
	st := exec.NewState(mem)
	return st
}

type gen struct {
	r *rand.Rand
	o Options
	p isa.Program
}

func (g *gen) emit(ins isa.Instruction) int {
	g.p.Instructions = append(g.p.Instructions, ins)
	return len(g.p.Instructions) - 1
}

func (g *gen) program() *isa.Program {
	// Prologue: establish the data base and seed some registers.
	g.emit(isa.Instruction{Op: isa.LoadAImm, I: 6, Imm: DataBase})
	for i := 1; i <= 5; i++ {
		g.emit(isa.Instruction{Op: isa.LoadAImm, I: uint8(i), Imm: int64(g.r.Intn(101) - 50)})
	}
	for i := 0; i < isa.NumS; i++ {
		g.emit(isa.Instruction{Op: isa.LoadSImm, I: uint8(i), Imm: int64(g.r.Intn(2001) - 1000)})
	}
	nLoops := 1 + g.r.Intn(g.o.MaxLoops)
	for i := 0; i < nLoops; i++ {
		g.loop(g.o.Nested && g.r.Intn(2) == 0)
	}
	g.block(1 + g.r.Intn(5)) // a straight-line epilogue
	g.emit(isa.Instruction{Op: isa.Halt})
	g.p.Labels = map[string]int{}
	return &g.p
}

// loop emits a counted loop: A0 countdown, decrement placed randomly
// early or late in the body, JANZ back edge.
func (g *gen) loop(nested bool) {
	trip := 1 + g.r.Intn(g.o.MaxTrip)
	g.emit(isa.Instruction{Op: isa.LoadAImm, I: 0, Imm: int64(trip)})
	top := len(g.p.Instructions)
	decEarly := g.r.Intn(2) == 0
	if decEarly {
		g.emit(isa.Instruction{Op: isa.AddAImm, I: 0, J: 0, Imm: -1})
	}
	g.block(1 + g.r.Intn(g.o.MaxBodyLen))
	if nested {
		// Park the outer count in B63, run an inner loop, restore.
		g.emit(isa.Instruction{Op: isa.MovBA, I: 0, Imm: 63})
		innerTrip := 1 + g.r.Intn(6)
		g.emit(isa.Instruction{Op: isa.LoadAImm, I: 0, Imm: int64(innerTrip)})
		innerTop := len(g.p.Instructions)
		g.emit(isa.Instruction{Op: isa.AddAImm, I: 0, J: 0, Imm: -1})
		g.block(1 + g.r.Intn(6))
		g.emit(isa.Instruction{Op: isa.BrANZ, Imm: int64(innerTop)})
		g.emit(isa.Instruction{Op: isa.MovAB, I: 0, Imm: 63})
	}
	if !decEarly {
		g.emit(isa.Instruction{Op: isa.AddAImm, I: 0, J: 0, Imm: -1})
	}
	g.emit(isa.Instruction{Op: isa.BrANZ, Imm: int64(top)})
}

// block emits n random body instructions, possibly with a forward
// conditional branch over a short run.
func (g *gen) block(n int) {
	for i := 0; i < n; i++ {
		if g.o.CondBranches && n-i > 3 && g.r.Intn(8) == 0 {
			skip := 1 + g.r.Intn(min(3, n-i-1))
			// Forward branch over `skip` instructions; both paths are
			// architecturally valid.
			br := g.pickForwardBranch()
			pos := g.emit(isa.Instruction{Op: br})
			for j := 0; j < skip; j++ {
				g.emit(g.bodyIns())
			}
			g.p.Instructions[pos].Imm = int64(len(g.p.Instructions))
			i += skip
			continue
		}
		g.emit(g.bodyIns())
	}
}

func (g *gen) pickForwardBranch() isa.Op {
	ops := []isa.Op{isa.BrAZ, isa.BrAP, isa.BrAM, isa.BrSZ, isa.BrSP, isa.BrSM}
	return ops[g.r.Intn(len(ops))]
}

// bodyIns picks one random, safe body instruction. A0 (loop counter) and
// A6 (data base) are never written; stores and loads stay inside the
// data window.
func (g *gen) bodyIns() isa.Instruction {
	writableA := func() uint8 { return uint8(1 + g.r.Intn(5)) } // A1-A5
	anyA := func() uint8 { return uint8(g.r.Intn(7)) }          // A0-A6
	s := func() uint8 { return uint8(g.r.Intn(isa.NumS)) }
	save := func() int64 { return int64(g.r.Intn(isa.NumB)) }
	disp := func() int64 { return int64(g.r.Intn(g.o.DataWords)) }

	switch g.r.Intn(14) {
	case 0:
		return isa.Instruction{Op: isa.AddA, I: writableA(), J: anyA(), K: anyA()}
	case 1:
		return isa.Instruction{Op: isa.SubA, I: writableA(), J: anyA(), K: anyA()}
	case 2:
		return isa.Instruction{Op: isa.MulA, I: writableA(), J: anyA(), K: anyA()}
	case 3:
		return isa.Instruction{Op: isa.AddAImm, I: writableA(), J: anyA(), Imm: int64(g.r.Intn(21) - 10)}
	case 4:
		ops := []isa.Op{isa.AddS, isa.SubS, isa.AndS, isa.OrS, isa.XorS, isa.ShlS, isa.ShrS}
		return isa.Instruction{Op: ops[g.r.Intn(len(ops))], I: s(), J: s(), K: s()}
	case 5:
		ops := []isa.Op{isa.FAdd, isa.FSub, isa.FMul}
		return isa.Instruction{Op: ops[g.r.Intn(len(ops))], I: s(), J: s(), K: s()}
	case 6:
		return isa.Instruction{Op: isa.ShlSImm, I: s(), J: s(), Imm: int64(g.r.Intn(8))}
	case 7:
		return isa.Instruction{Op: isa.MovSA, I: s(), J: anyA()}
	case 8:
		return isa.Instruction{Op: isa.MovAS, I: writableA(), J: s()}
	case 9:
		if g.r.Intn(2) == 0 {
			return isa.Instruction{Op: isa.MovBA, I: anyA(), Imm: save() % 62} // B0-B61 (B63 is the nest register)
		}
		return isa.Instruction{Op: isa.MovAB, I: writableA(), Imm: save() % 62}
	case 10:
		if g.r.Intn(2) == 0 {
			return isa.Instruction{Op: isa.MovTS, I: s(), Imm: save()}
		}
		return isa.Instruction{Op: isa.MovST, I: s(), Imm: save()}
	case 11:
		if g.r.Intn(2) == 0 {
			return isa.Instruction{Op: isa.LoadS, I: s(), J: 6, Imm: disp()}
		}
		return isa.Instruction{Op: isa.LoadA, I: writableA(), J: 6, Imm: disp()}
	case 12:
		if g.r.Intn(2) == 0 {
			return isa.Instruction{Op: isa.StoreS, I: s(), J: 6, Imm: disp()}
		}
		return isa.Instruction{Op: isa.StoreA, I: anyA(), J: 6, Imm: disp()}
	default:
		return isa.Instruction{Op: isa.LoadSImm, I: s(), Imm: int64(g.r.Intn(4001) - 2000)}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
