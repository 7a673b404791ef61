package gsh

import (
	"strings"
	"testing"
)

// FuzzGshLine runs up to eight lines, one command each, on one shell over
// a small staged machine: every line is a GPU kernel on the same engine,
// so the target also drives spawn, Run and coroutine reuse across many
// runs. A malformed line must come back as an error, never as a host
// panic, a crashed simulated process or a hang.
//
// ckpt and replay read and write host files, so they are skipped. The
// seed corpus is testdata/fuzz/FuzzGshLine.
func FuzzGshLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		s := newShell(t)
		lines := strings.Split(input, "\n")
		if len(lines) > 8 {
			lines = lines[:8]
		}
		for _, line := range lines {
			if args := strings.Fields(line); len(args) > 0 && (args[0] == "ckpt" || args[0] == "replay") {
				continue
			}
			if _, err := s.Run(line); err != nil && strings.Contains(err.Error(), "panicked") {
				t.Fatalf("line %q crashed a simulated process: %v", line, err)
			}
		}
		if err := s.M.E.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
