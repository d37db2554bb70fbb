package asm

import (
	"os"
	"path/filepath"
	"testing"

	"ruu/internal/isa"
)

// FuzzAssemble feeds arbitrary source to the assembler. Whatever it
// accepts must lay out into the default memory image without a panic,
// and its instructions must survive an isa.Encode/isa.Decode round
// trip. Plain `go test` runs the example programs and the committed
// crashers under testdata/fuzz/FuzzAssemble as seeds.
func FuzzAssemble(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "asm", "*.s"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no example programs to seed from")
	}
	for _, name := range seeds {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := Assemble(src)
		if err != nil {
			return
		}
		u.NewMemory()
		parcels, err := isa.Encode(u.Prog)
		if err != nil {
			t.Fatalf("assembled program does not encode: %v", err)
		}
		back, err := isa.Decode(parcels)
		if err != nil {
			t.Fatalf("encoded program does not decode: %v", err)
		}
		if len(back.Instructions) != len(u.Prog.Instructions) {
			t.Fatalf("round trip gives %d instructions, want %d", len(back.Instructions), len(u.Prog.Instructions))
		}
		for i, want := range u.Prog.Instructions {
			want.Line = 0 // source lines are not encoded
			if got := back.Instructions[i]; got != want {
				t.Fatalf("instruction %d: round trip gives %+v, want %+v", i, got, want)
			}
		}
	})
}
