package ruu

import (
	"reflect"
	"testing"
)

// FuzzDecodeCached feeds arbitrary bytes to the persisted-value decoder,
// which parses store payloads from disk. It must never panic, and
// anything it accepts must encode again and decode to an equal value.
// Plain `go test` runs the seeds committed under
// testdata/fuzz/FuzzDecodeCached: a simulation outcome and a kernel run
// as the service persists them.
func FuzzDecodeCached(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ok := decodeCached(data)
		if !ok {
			return
		}
		enc, ok := encodeCached(v)
		if !ok {
			t.Fatalf("decoded %#v does not encode", v)
		}
		back, ok := decodeCached(enc)
		if !ok {
			t.Fatalf("re-encoding %q does not decode", enc)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("round trip gives %#v, want %#v", back, v)
		}
	})
}
