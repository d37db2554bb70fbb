package asm

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ruu/internal/isa"
	"ruu/internal/memsys"
)

func TestAssembleBasics(t *testing.T) {
	u, err := Assemble(`
; a comment
.equ  n 10            # another comment
.f64  q 1.5
.word k 42
.array buf 4
start:
    lai   A1, =n
    lai   A2, =buf
    lds   S1, =q(A7)
    lds   S2, 0(A2)
    adda  A3, A1, A2
    jam   start
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(u.Prog.Instructions); got != 7 {
		t.Fatalf("got %d instructions, want 7", got)
	}
	if u.Symbols["n"] != 10 {
		t.Errorf("n = %d", u.Symbols["n"])
	}
	qAddr := u.Symbols["q"]
	kAddr := u.Symbols["k"]
	bufAddr := u.Symbols["buf"]
	if kAddr != qAddr+1 || bufAddr != kAddr+1 {
		t.Errorf("data layout not sequential: q=%d k=%d buf=%d", qAddr, kAddr, bufAddr)
	}
	if u.DataEnd != bufAddr+4 {
		t.Errorf("DataEnd = %d, want %d", u.DataEnd, bufAddr+4)
	}
	mem := u.NewMemory()
	if got := mem.Peek(qAddr); got != int64(math.Float64bits(1.5)) {
		t.Errorf("q datum = %#x", got)
	}
	if got := mem.Peek(kAddr); got != 42 {
		t.Errorf("k datum = %d", got)
	}
	if u.Prog.Labels["start"] != 0 {
		t.Errorf("label start = %d", u.Prog.Labels["start"])
	}
	if ins := u.Prog.Instructions[5]; ins.Op != isa.BrAM || ins.Imm != 0 {
		t.Errorf("jam encoded as %v", ins)
	}
	if ins := u.Prog.Instructions[0]; ins.Op != isa.LoadAImm || ins.Imm != 10 {
		t.Errorf("lai =n encoded as %v", ins)
	}
}

func TestAssembleSymbolOffsets(t *testing.T) {
	u, err := Assemble(`
.array z 20
    lds S1, =z+10(A1)
    lds S2, =z-1(A2)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	z := u.Symbols["z"]
	if got := u.Prog.Instructions[0].Imm; got != z+10 {
		t.Errorf("=z+10 -> %d, want %d", got, z+10)
	}
	if got := u.Prog.Instructions[1].Imm; got != z-1 {
		t.Errorf("=z-1 -> %d, want %d", got, z-1)
	}
}

func TestAssembleMoves(t *testing.T) {
	u, err := Assemble(`
    movsa S1, A2
    movas A3, S4
    movab A1, B33
    movba B34, A2
    movst S5, T60
    movts T61, S6
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"movsa S1, A2", "movas A3, S4", "movab A1, B33",
		"movba B34, A2", "movst S5, T60", "movts T61, S6", "halt",
	}
	for i, w := range want {
		if got := u.Prog.Instructions[i].String(); got != w {
			t.Errorf("instruction %d = %q, want %q", i, got, w)
		}
	}
}

func TestAssembleFarrayAndBase(t *testing.T) {
	u, err := Assemble(`
.base 100
.farray f 3 2.5
.array  zed 2 7
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Symbols["f"] != 100 {
		t.Fatalf("f = %d, want 100", u.Symbols["f"])
	}
	mem := u.NewMemory()
	for i := int64(0); i < 3; i++ {
		if got := mem.Peek(100 + i); got != int64(math.Float64bits(2.5)) {
			t.Errorf("f[%d] = %#x", i, got)
		}
	}
	for i := int64(0); i < 2; i++ {
		if got := mem.Peek(103 + i); got != 7 {
			t.Errorf("zed[%d] = %d, want 7", i, got)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "bogus A1, A2\nhalt", "unknown mnemonic"},
		{"bad register", "adda A1, A9, A2\nhalt", "bad register"},
		{"wrong file", "adda S1, S2, S3\nhalt", "expected A register"},
		{"wrong arity", "adda A1, A2\nhalt", "takes 3 operand"},
		{"undefined symbol", "lai A1, =nothing\nhalt", "undefined symbol"},
		{"undefined target", "jmp nowhere\nhalt", "undefined branch target"},
		{"dup label", "x:\nnop\nx:\nhalt", "duplicate label"},
		{"dup symbol", ".equ a 1\n.equ a 2\nhalt", "duplicate symbol"},
		{"label-symbol clash", ".equ a 1\na:\nhalt", "collides"},
		{"bad directive", ".bogus x 1\nhalt", "unknown directive"},
		{"bad equ", ".equ a xyz\nhalt", "bad .equ value"},
		{"bad f64", ".f64 a pi\nhalt", "bad .f64 value"},
		{"bad array count", ".array a 0\nhalt", "bad .array count"},
		{"bad mem operand", "lds S1, S2\nhalt", "bad memory operand"},
		{"disp overflow", ".equ w 40000\nlds S1, =w(A1)\nhalt", "does not fit"},
		{"bad label", "9lab:\nhalt", "invalid label"},
		{"bad imm", "lai A1, zz\nhalt", "bad immediate"},
		{"bad symbol offset", ".array z 4\nlai A1, =z+q\nhalt", "bad symbol offset"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("assembled successfully, wanted error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

// TestAssembleDataFillsMemory: data may run up to the last word of the
// default memory image, and that image lays out without a panic.
func TestAssembleDataFillsMemory(t *testing.T) {
	u, err := Assemble(".array A 28671 7\n.word last 9\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m := u.NewMemory()
	if got := m.Peek(memsys.DefaultWords - 1); got != 9 {
		t.Errorf("last word = %d, want 9", got)
	}
}

// TestNewMemoryConcurrentClones calls NewMemory on a fresh unit from
// several goroutines at once, so building the shared initial image
// races, and has each write every page of its memory: no write may
// reach the image or another caller's memory. Run it with -race.
func TestNewMemoryConcurrentClones(t *testing.T) {
	u, err := Assemble(".word a 5\n.base 3000\n.word b 6\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	mems := make([]*memsys.Memory, callers)
	done := make(chan int)
	for i := range mems {
		go func() {
			m := u.NewMemory()
			for a := int64(0); a < int64(m.Size()); a += memsys.PageWords / 2 {
				m.Poke(a, int64(100+i))
			}
			mems[i] = m
			done <- i
		}()
	}
	for range mems {
		<-done
	}
	fresh := u.NewMemory()
	for a := int64(0); a < int64(fresh.Size()); a++ {
		want := int64(0)
		switch a {
		case DefaultDataBase:
			want = 5
		case 3000:
			want = 6
		}
		if got := fresh.Peek(a); got != want {
			t.Fatalf("initial image word %d = %d after the callers wrote their copies, want %d", a, got, want)
		}
	}
	for i, m := range mems {
		for a := int64(0); a < int64(m.Size()); a += memsys.PageWords / 2 {
			if got := m.Peek(a); got != int64(100+i) {
				t.Fatalf("caller %d word %d = %d, want %d", i, a, got, 100+i)
			}
		}
	}
}

// TestDiagnosticLines pins the source line attached to each diagnostic:
// ruudfa and lltrace print these positions verbatim, so every error kind
// must point at the offending line, not just fail.
func TestDiagnosticLines(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		wantLine           int
	}{
		{"unknown mnemonic", "nop\nnop\nbogus\nhalt", "unknown mnemonic", 3},
		{"undefined symbol", "nop\nlai A1, =nothing\nhalt", "undefined symbol", 2},
		{"undefined branch target", "nop\nnop\nnop\njmp nowhere\nhalt", "undefined branch target", 4},
		{"duplicate label", "x:\nnop\nnop\nx:\nhalt", "duplicate label", 4},
		{"duplicate symbol", ".equ a 1\n.equ a 2\nhalt", "duplicate symbol", 2},
		{"branch past end", "nop\njmp end\nhalt\nend:", "past the last instruction", 2},
		{"array past memory", "nop\n.array A 28700 0\nhalt", "past the end of memory", 2},
		{"word past memory", ".base 40000\nnop\n.word x 1\nhalt", "past the end of memory", 3},
		{"f64 past memory", ".base 32768\n.f64 x 1.5\nhalt", "past the end of memory", 2},
		{"huge array", ".array A 2000000000 0\nhalt", "past the end of memory", 1},
		{"array wraps the cursor", ".array A 0x7fffffffffffffff\n.word x 1\nhalt", "past the end of memory", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("assembled successfully, wanted error containing %q", c.wantSub)
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %q is not an *asm.Error", err)
			}
			if !strings.Contains(ae.Msg, c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
			if ae.Line != c.wantLine {
				t.Errorf("error %q on line %d, want line %d", err, ae.Line, c.wantLine)
			}
		})
	}
}

func TestAssembleFile(t *testing.T) {
	dir := t.TempDir()

	good := filepath.Join(dir, "good.s")
	if err := os.WriteFile(good, []byte("lai A1, 1\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := AssembleFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Prog.Instructions) != 2 {
		t.Fatalf("got %d instructions, want 2", len(u.Prog.Instructions))
	}

	bad := filepath.Join(dir, "bad.s")
	if err := os.WriteFile(bad, []byte("nop\nbogus\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = AssembleFile(bad)
	if err == nil {
		t.Fatal("expected error")
	}
	if want := fmt.Sprintf("asm: %s:2: ", bad); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not carry %q", err, want)
	}

	if _, err := AssembleFile(filepath.Join(dir, "missing.s")); err == nil {
		t.Error("expected error for a missing file")
	}
}

// TestDisassembleRoundTrip: disassembling and re-assembling a program
// yields the same instruction stream.
func TestDisassembleRoundTrip(t *testing.T) {
	src := `
.array buf 8
top:
    lai   A1, 0
    lai   A0, 4
loop:
    addai A0, A0, -1
    lds   S1, =buf(A1)
    fadd  S2, S2, S1
    sts   S2, =buf(A1)
    addai A1, A1, 1
    janz  loop
    jmp   done
    nop
done:
    halt
`
	u := MustAssemble(src)
	dis := Disassemble(u.Prog)
	u2, err := Assemble(dis)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, dis)
	}
	if len(u2.Prog.Instructions) != len(u.Prog.Instructions) {
		t.Fatalf("length changed: %d -> %d", len(u.Prog.Instructions), len(u2.Prog.Instructions))
	}
	for i := range u.Prog.Instructions {
		a, b := u.Prog.Instructions[i], u2.Prog.Instructions[i]
		a.Line, b.Line = 0, 0
		if a != b {
			t.Errorf("instruction %d changed: %v -> %v", i, a, b)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus")
}
