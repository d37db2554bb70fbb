package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes to the entry-file decoder,
// which reads whatever is on disk. It must never panic; any payload it
// accepts must frame again to the very same bytes, and any bytes framed
// as a payload must decode back to themselves. Plain `go test` runs the
// seeds committed under testdata/fuzz/FuzzDecodeEntry: entries framing
// a simulation outcome and a kernel run as the service persists them,
// and damaged copies of one.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := decodeEntry(data); ok {
			if again := encodeEntry(payload); !bytes.Equal(again, data) {
				t.Fatalf("accepted entry re-frames to %q, want %q", again, data)
			}
		}
		got, ok := decodeEntry(encodeEntry(data))
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("framing %q decodes to %q, %v", data, got, ok)
		}
	})
}
