// Package asm implements a two-pass assembler and a disassembler for the
// model architecture's textual assembly, used by the Livermore kernels,
// the examples, and the tests.
//
// Syntax overview (one statement per line; ';' and '#' start comments):
//
//	.base 4096          ; set the data cursor (word address)
//	.equ   n 100        ; symbolic constant
//	.f64   q 1.5        ; one word of float64 data, symbol q = its address
//	.word  k 42         ; one word of integer data
//	.array x 100        ; reserve 100 zeroed words, symbol x = base address
//	.farray y 3 0.5     ; reserve 3 words, each initialised to float64 0.5
//
//	loop:               ; label (instruction address)
//	    lai   A1, =x    ; immediate: literal, =symbol, or 'c' character
//	    lds   S1, 0(A1) ; memory: displacement(base A register)
//	    lds   S2, =x(A2); displacement may be a symbol reference
//	    fadd  S3, S1, S2
//	    jam   loop      ; branch to label
//	    halt
package asm

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/memsys"
)

// DefaultDataBase is the word address at which data directives start
// allocating when no .base directive is given. Instruction parcels and
// data live in separate spaces in the model architecture, so this only
// needs to avoid address 0 (a handy null).
const DefaultDataBase = 4096

// Datum is one initialised word of the data image.
type Datum struct {
	Addr  int64
	Value int64
}

// Unit is the result of assembling a source file: the program, the
// initialised data, and the symbol table.
type Unit struct {
	Prog    *isa.Program
	Data    []Datum
	Symbols map[string]int64
	// DataEnd is one past the highest allocated data address.
	DataEnd int64

	// nIns is the pass-1 instruction count, for pass-2 range checks.
	nIns int

	// imageOnce guards the initial memory image (see NewMemory), which
	// is frozen and never written.
	imageOnce sync.Once
	image     *memsys.Memory

	// refOnce guards the memoized functional reference (see Reference).
	refOnce sync.Once
	ref     *Reference
	refErr  error
}

// Reference is a unit's functional reference: where the functional
// executor ends when it runs the program from NewMemory. It keeps what
// a verify step compares, the final registers, the run's counts and the
// final memory image, frozen, and is shared read-only by every caller.
type Reference struct {
	Regs   exec.RegState
	Result exec.RunResult
	Mem    *memsys.Memory
}

// Reference returns the unit's functional reference. The first call
// runs the functional executor; every later call, from any goroutine,
// returns the same value, or the same error. The reference depends only
// on the program and data image, so the unit must not change after the
// first call.
func (u *Unit) Reference() (*Reference, error) {
	u.refOnce.Do(func() {
		st := exec.NewState(u.NewMemory())
		res, err := st.Run(u.Prog, 0, nil)
		if err != nil {
			u.refErr = err
			return
		}
		st.Mem.Freeze()
		u.ref = &Reference{Regs: st.RegState, Result: res, Mem: st.Mem}
	})
	return u.ref, u.refErr
}

// InitMemory writes the unit's data image into m.
func (u *Unit) InitMemory(m *memsys.Memory) {
	for _, d := range u.Data {
		m.Poke(d.Addr, d.Value)
	}
}

// NewMemory returns a default-sized memory initialised with the unit's
// data image. The first call builds the image and freezes it; every
// call, from any goroutine, returns a Clone of it, which shares its
// pages until it writes them. The unit must not change after the first
// call.
func (u *Unit) NewMemory() *memsys.Memory {
	u.imageOnce.Do(func() {
		u.image = memsys.NewMemory(0)
		u.InitMemory(u.image)
		u.image.Freeze()
	})
	return u.image.Clone()
}

// Error is an assembly error with source position. File is empty when
// the source did not come from a file (Assemble on a string).
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("asm: %s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type stmt struct {
	line   int
	label  string
	mnem   string
	fields []string // comma-separated operand fields, trimmed
	raw    string
}

// Assemble assembles source text.
func Assemble(src string) (*Unit, error) {
	stmts, err := scan(src)
	if err != nil {
		return nil, err
	}
	u := &Unit{
		Prog:    &isa.Program{Labels: map[string]int{}},
		Symbols: map[string]int64{},
	}

	// Pass 1: lay out instructions and data, collect symbols.
	cursor := int64(DefaultDataBase)
	nIns := 0
	for i := range stmts {
		s := &stmts[i]
		if s.label != "" {
			if _, dup := u.Prog.Labels[s.label]; dup {
				return nil, errf(s.line, "duplicate label %q", s.label)
			}
			if _, dup := u.Symbols[s.label]; dup {
				return nil, errf(s.line, "label %q collides with a data symbol", s.label)
			}
			u.Prog.Labels[s.label] = nIns
		}
		if s.mnem == "" {
			continue
		}
		if strings.HasPrefix(s.mnem, ".") {
			var derr error
			cursor, derr = u.directive(s, cursor)
			if derr != nil {
				return nil, derr
			}
			continue
		}
		if _, ok := opByName[s.mnem]; !ok {
			return nil, errf(s.line, "unknown mnemonic %q", s.mnem)
		}
		nIns++
	}
	u.DataEnd = cursor
	u.nIns = nIns

	// Pass 2: encode instructions.
	for i := range stmts {
		s := &stmts[i]
		if s.mnem == "" || strings.HasPrefix(s.mnem, ".") {
			continue
		}
		ins, err := u.encode(s)
		if err != nil {
			return nil, err
		}
		u.Prog.Instructions = append(u.Prog.Instructions, ins)
	}
	if err := u.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return u, nil
}

// AssembleFile reads and assembles path; assembly errors carry the file
// name, so diagnostics render as "asm: path:line: msg".
func AssembleFile(path string) (*Unit, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	u, err := Assemble(string(src))
	if err != nil {
		var ae *Error
		if errors.As(err, &ae) {
			ae.File = path
		}
		return nil, err
	}
	return u, nil
}

// MustAssemble is Assemble, panicking on error (for tests and the
// built-in kernels, whose sources are fixed).
func MustAssemble(src string) *Unit {
	u, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return u
}

func scan(src string) ([]stmt, error) {
	var out []stmt
	for lineNo, line := range strings.Split(src, "\n") {
		n := lineNo + 1
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var s stmt
		s.line = n
		s.raw = line
		if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t") {
			s.label = line[:i]
			if !validIdent(s.label) {
				return nil, errf(n, "invalid label %q", s.label)
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line != "" {
			parts := strings.SplitN(line, " ", 2)
			s.mnem = strings.ToLower(strings.TrimSpace(parts[0]))
			if len(parts) > 1 {
				for _, f := range strings.Split(parts[1], ",") {
					s.fields = append(s.fields, strings.TrimSpace(f))
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (u *Unit) directive(s *stmt, cursor int64) (int64, error) {
	need := func(n int) error {
		if len(s.fields) == 0 {
			// Directives separate fields by spaces, not commas; resplit.
			return errf(s.line, "%s needs %d operand(s)", s.mnem, n)
		}
		return nil
	}
	// Directive operands are space-separated after the mnemonic; the
	// scanner split on commas, so re-split the joined remainder.
	fields := strings.Fields(strings.Join(s.fields, " "))
	_ = need
	def := func(name string, v int64) error {
		if !validIdent(name) {
			return errf(s.line, "invalid symbol %q", name)
		}
		if _, dup := u.Symbols[name]; dup {
			return errf(s.line, "duplicate symbol %q", name)
		}
		if _, dup := u.Prog.Labels[name]; dup {
			return errf(s.line, "symbol %q collides with a label", name)
		}
		u.Symbols[name] = v
		return nil
	}
	// inMemory rejects n data words at cursor unless all of them fall
	// inside the default memory image, before anything is appended.
	inMemory := func(n int64) error {
		if cursor < 0 || cursor > memsys.DefaultWords-n {
			return errf(s.line, "%s: %d data word(s) at address %d run past the end of memory (%d words)", s.mnem, n, cursor, memsys.DefaultWords)
		}
		return nil
	}
	switch s.mnem {
	case ".base":
		if len(fields) != 1 {
			return cursor, errf(s.line, ".base needs one operand")
		}
		v, err := strconv.ParseInt(fields[0], 0, 64)
		if err != nil || v < 0 {
			return cursor, errf(s.line, "bad .base value %q", fields[0])
		}
		return v, nil
	case ".equ":
		if len(fields) != 2 {
			return cursor, errf(s.line, ".equ needs name and value")
		}
		v, err := strconv.ParseInt(fields[1], 0, 64)
		if err != nil {
			return cursor, errf(s.line, "bad .equ value %q", fields[1])
		}
		return cursor, def(fields[0], v)
	case ".word":
		if len(fields) != 2 {
			return cursor, errf(s.line, ".word needs name and value")
		}
		v, err := strconv.ParseInt(fields[1], 0, 64)
		if err != nil {
			return cursor, errf(s.line, "bad .word value %q", fields[1])
		}
		if err := inMemory(1); err != nil {
			return cursor, err
		}
		if err := def(fields[0], cursor); err != nil {
			return cursor, err
		}
		u.Data = append(u.Data, Datum{cursor, v})
		return cursor + 1, nil
	case ".f64":
		if len(fields) != 2 {
			return cursor, errf(s.line, ".f64 needs name and value")
		}
		f, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return cursor, errf(s.line, "bad .f64 value %q", fields[1])
		}
		if err := inMemory(1); err != nil {
			return cursor, err
		}
		if err := def(fields[0], cursor); err != nil {
			return cursor, err
		}
		u.Data = append(u.Data, Datum{cursor, int64(math.Float64bits(f))})
		return cursor + 1, nil
	case ".array", ".farray":
		if len(fields) < 2 || len(fields) > 3 {
			return cursor, errf(s.line, "%s needs name, count [, init]", s.mnem)
		}
		n, err := strconv.ParseInt(fields[1], 0, 64)
		if err != nil || n <= 0 {
			return cursor, errf(s.line, "bad %s count %q", s.mnem, fields[1])
		}
		if err := def(fields[0], cursor); err != nil {
			return cursor, err
		}
		if len(fields) == 3 {
			var word int64
			if s.mnem == ".farray" {
				f, err := strconv.ParseFloat(fields[2], 64)
				if err != nil {
					return cursor, errf(s.line, "bad %s init %q", s.mnem, fields[2])
				}
				word = int64(math.Float64bits(f))
			} else {
				word, err = strconv.ParseInt(fields[2], 0, 64)
				if err != nil {
					return cursor, errf(s.line, "bad %s init %q", s.mnem, fields[2])
				}
			}
			if err := inMemory(n); err != nil {
				return cursor, err
			}
			for i := int64(0); i < n; i++ {
				u.Data = append(u.Data, Datum{cursor + i, word})
			}
		}
		return cursor + n, nil
	default:
		return cursor, errf(s.line, "unknown directive %q", s.mnem)
	}
}

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(0); op < isa.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (u *Unit) lookup(line int, name string) (int64, error) {
	if v, ok := u.Symbols[name]; ok {
		return v, nil
	}
	return 0, errf(line, "undefined symbol %q", name)
}

// parseImm parses an immediate field: a literal integer (decimal, hex,
// octal via Go syntax), "=symbol", or "=symbol+off" / "=symbol-off".
func (u *Unit) parseImm(line int, f string) (int64, error) {
	if strings.HasPrefix(f, "=") {
		expr := f[1:]
		name, off := expr, int64(0)
		if i := strings.IndexAny(expr, "+-"); i > 0 {
			name = expr[:i]
			v, err := strconv.ParseInt(expr[i:], 0, 64)
			if err != nil {
				return 0, errf(line, "bad symbol offset in %q", f)
			}
			off = v
		}
		base, err := u.lookup(line, name)
		if err != nil {
			return 0, err
		}
		return base + off, nil
	}
	v, err := strconv.ParseInt(f, 0, 64)
	if err != nil {
		return 0, errf(line, "bad immediate %q", f)
	}
	return v, nil
}

// parseReg parses a register of the given file ("" accepts A or S).
func parseReg(line int, f string, want isa.File) (isa.Reg, error) {
	f = strings.ToUpper(strings.TrimSpace(f))
	if len(f) < 2 {
		return isa.None, errf(line, "bad register %q", f)
	}
	var file isa.File
	switch f[0] {
	case 'A':
		file = isa.FileA
	case 'S':
		file = isa.FileS
	case 'B':
		file = isa.FileB
	case 'T':
		file = isa.FileT
	default:
		return isa.None, errf(line, "bad register %q", f)
	}
	if want != isa.FileNone && file != want {
		return isa.None, errf(line, "register %q: expected %s register", f, want)
	}
	n, err := strconv.Atoi(f[1:])
	if err != nil || n < 0 || n >= file.Size() {
		return isa.None, errf(line, "bad register %q", f)
	}
	return isa.Reg{File: file, Idx: uint8(n)}, nil
}

func (u *Unit) encode(s *stmt) (isa.Instruction, error) {
	op := opByName[s.mnem]
	info := op.Info()
	ins := isa.Instruction{Op: op, Line: s.line}
	wantN := map[isa.Format]int{
		isa.FmtNone: 0, isa.FmtTrap: 0, isa.FmtR3: 3, isa.FmtR2: 2,
		isa.FmtR2Imm: 3, isa.FmtRImm: 2, isa.FmtMove: 2, isa.FmtMem: 2,
		isa.FmtBranch: 1,
	}[info.Fmt]
	if len(s.fields) != wantN {
		return ins, errf(s.line, "%s takes %d operand(s), got %d", s.mnem, wantN, len(s.fields))
	}
	switch info.Fmt {
	case isa.FmtNone, isa.FmtTrap:
	case isa.FmtR3:
		for i, fld := range s.fields {
			r, err := parseReg(s.line, fld, info.File)
			if err != nil {
				return ins, err
			}
			switch i {
			case 0:
				ins.I = r.Idx
			case 1:
				ins.J = r.Idx
			case 2:
				ins.K = r.Idx
			}
		}
	case isa.FmtR2:
		r0, err := parseReg(s.line, s.fields[0], info.File)
		if err != nil {
			return ins, err
		}
		r1, err := parseReg(s.line, s.fields[1], info.File)
		if err != nil {
			return ins, err
		}
		ins.I, ins.J = r0.Idx, r1.Idx
	case isa.FmtR2Imm:
		r0, err := parseReg(s.line, s.fields[0], info.File)
		if err != nil {
			return ins, err
		}
		r1, err := parseReg(s.line, s.fields[1], info.File)
		if err != nil {
			return ins, err
		}
		imm, err := u.parseImm(s.line, s.fields[2])
		if err != nil {
			return ins, err
		}
		ins.I, ins.J, ins.Imm = r0.Idx, r1.Idx, imm
	case isa.FmtRImm:
		r0, err := parseReg(s.line, s.fields[0], info.File)
		if err != nil {
			return ins, err
		}
		imm, err := u.parseImm(s.line, s.fields[1])
		if err != nil {
			return ins, err
		}
		ins.I, ins.Imm = r0.Idx, imm
	case isa.FmtMove:
		return u.encodeMove(s, ins)
	case isa.FmtMem:
		r0, err := parseReg(s.line, s.fields[0], info.File)
		if err != nil {
			return ins, err
		}
		disp, base, err := u.parseMemOperand(s.line, s.fields[1])
		if err != nil {
			return ins, err
		}
		ins.I, ins.J, ins.Imm = r0.Idx, base.Idx, disp
	case isa.FmtBranch:
		t, ok := u.Prog.Labels[s.fields[0]]
		if !ok {
			return ins, errf(s.line, "undefined branch target %q", s.fields[0])
		}
		if t >= u.nIns {
			// A label on the final line with no instruction after it
			// resolves past the end; catch it here so the diagnostic
			// carries the branch's source line (Program.Validate would
			// reject it without one).
			return ins, errf(s.line, "branch target %q points past the last instruction", s.fields[0])
		}
		ins.Imm = int64(t)
	}
	if err := ins.Validate(); err != nil {
		return ins, errf(s.line, "%v", err)
	}
	return ins, nil
}

// parseMemOperand parses "disp(Abase)" where disp is an immediate or
// =symbol and may be empty (0).
func (u *Unit) parseMemOperand(line int, f string) (int64, isa.Reg, error) {
	open := strings.Index(f, "(")
	if open < 0 || !strings.HasSuffix(f, ")") {
		return 0, isa.None, errf(line, "bad memory operand %q (want disp(Ax))", f)
	}
	dispStr := strings.TrimSpace(f[:open])
	base, err := parseReg(line, f[open+1:len(f)-1], isa.FileA)
	if err != nil {
		return 0, isa.None, err
	}
	var disp int64
	if dispStr != "" {
		disp, err = u.parseImm(line, dispStr)
		if err != nil {
			return 0, isa.None, err
		}
	}
	return disp, base, nil
}

func (u *Unit) encodeMove(s *stmt, ins isa.Instruction) (isa.Instruction, error) {
	type spec struct{ f0, f1 isa.File }
	specs := map[isa.Op]spec{
		isa.MovSA: {isa.FileS, isa.FileA},
		isa.MovAS: {isa.FileA, isa.FileS},
		isa.MovAB: {isa.FileA, isa.FileB},
		isa.MovBA: {isa.FileB, isa.FileA},
		isa.MovST: {isa.FileS, isa.FileT},
		isa.MovTS: {isa.FileT, isa.FileS},
	}
	sp := specs[ins.Op]
	r0, err := parseReg(s.line, s.fields[0], sp.f0)
	if err != nil {
		return ins, err
	}
	r1, err := parseReg(s.line, s.fields[1], sp.f1)
	if err != nil {
		return ins, err
	}
	switch ins.Op {
	case isa.MovSA, isa.MovAS:
		ins.I, ins.J = r0.Idx, r1.Idx
	case isa.MovAB, isa.MovST:
		ins.I, ins.Imm = r0.Idx, int64(r1.Idx)
	case isa.MovBA, isa.MovTS:
		ins.Imm, ins.I = int64(r0.Idx), r1.Idx
	default:
		// Unreachable: parseMove is only dispatched for move mnemonics.
	}
	return ins, nil
}

// Disassemble renders a program back to assembler syntax, substituting
// label names for branch targets where known.
func Disassemble(p *isa.Program) string {
	byIdx := map[int]string{}
	for name, idx := range p.Labels {
		if old, ok := byIdx[idx]; !ok || name < old {
			byIdx[idx] = name
		}
	}
	var b strings.Builder
	for i, ins := range p.Instructions {
		if name, ok := byIdx[i]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		text := ins.String()
		if ins.Op.IsBranch() {
			if name, ok := byIdx[int(ins.Imm)]; ok {
				text = fmt.Sprintf("%s %s", ins.Op, name)
			}
		}
		fmt.Fprintf(&b, "    %s\n", text)
	}
	return b.String()
}
