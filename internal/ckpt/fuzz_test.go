package ckpt_test

import (
	"bytes"
	"testing"

	"genesys/internal/ckpt"
)

// FuzzCkptDecode decodes arbitrary bytes as a snapshot. Decode must
// return, never panic, and a snapshot it accepts must have a cut at or
// after time zero and survive a round trip: its encoding decodes again
// and re-encodes to the same bytes. The seed corpus in testdata/fuzz
// holds a real bench snapshot (syscall-idle cut at 150 µs), a minimal
// one and one snapshot per rejected field.
func FuzzCkptDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ckpt.Decode(b)
		if err != nil {
			return
		}
		if s.CutAt < 0 {
			t.Fatalf("accepted cut_at_ns %d", s.CutAt)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s2, err := ckpt.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the snapshot:\n%s\n---\n%s", enc, enc2)
		}
	})
}
