package isa_test

import (
	"testing"

	"ruu/internal/isa"
)

// FuzzDecode feeds arbitrary parcel streams (two bytes per parcel,
// high byte first; an odd trailing byte is dropped) to the decoder.
// Whatever it accepts must encode again, and decoding that encoding
// must give the same instructions and the same parcels; its predecoded
// micro-ops must agree with the per-instruction decode. Plain
// `go test` runs the 14 Livermore kernels' encodings committed under
// testdata/fuzz/FuzzDecode as seeds.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parcels := make([]isa.Parcel, len(data)/2)
		for i := range parcels {
			parcels[i] = isa.Parcel(data[2*i])<<8 | isa.Parcel(data[2*i+1])
		}
		p, err := isa.Decode(parcels)
		if err != nil {
			return
		}
		again, err := isa.Encode(p)
		if err != nil {
			t.Fatalf("decoded program does not encode: %v", err)
		}
		if len(again) != len(parcels) {
			t.Fatalf("re-encoding gives %d parcels, want %d", len(again), len(parcels))
		}
		for i := range parcels {
			if again[i] != parcels[i] {
				t.Fatalf("parcel %d: re-encoding gives %#04x, want %#04x", i, again[i], parcels[i])
			}
		}
		back, err := isa.Decode(again)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		if len(back.Instructions) != len(p.Instructions) {
			t.Fatalf("round trip gives %d instructions, want %d", len(back.Instructions), len(p.Instructions))
		}
		for i, want := range p.Instructions {
			if got := back.Instructions[i]; got != want {
				t.Fatalf("instruction %d: round trip gives %+v, want %+v", i, got, want)
			}
		}
		for pc, u := range isa.Predecode(p) {
			checkUop(t, p.Instructions[pc], u)
		}
	})
}
