package gsh

import (
	"errors"
	"strings"
	"testing"

	"genesys/internal/platform"
)

func newShell(t *testing.T) *Shell {
	t.Helper()
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	s := New(m)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.WriteFile("/tmp/poem.txt", []byte("roses are red\nviolets are blue\nGPUs make syscalls\nand so can you\n")))
	must(m.WriteFile("/tmp/empty", nil))
	return s
}

func TestLs(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("ls /tmp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "poem.txt") || !strings.Contains(out, "empty") {
		t.Fatalf("ls output:\n%s", out)
	}
	if !strings.Contains(out, "-       65 poem.txt") {
		t.Fatalf("ls sizes wrong:\n%s", out)
	}
}

func TestCat(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("cat /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "roses are red\n") || !strings.Contains(out, "and so can you") {
		t.Fatalf("cat output:\n%s", out)
	}
}

func TestWc(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("wc /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	// 4 lines, 13 words, 65 bytes.
	if !strings.Contains(out, "4      13      65 /tmp/poem.txt") {
		t.Fatalf("wc output: %q", out)
	}
}

func TestGrep(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("grep are /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "/tmp/poem.txt:1:roses are red") ||
		!strings.Contains(out, "/tmp/poem.txt:2:violets are blue") ||
		strings.Contains(out, ":3:") {
		t.Fatalf("grep output:\n%s", out)
	}
}

func TestStatAndDf(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("stat /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Size: 65") || !strings.Contains(out, "regular file") {
		t.Fatalf("stat output:\n%s", out)
	}
	out, err = s.Run("stat /tmp")
	if err != nil || !strings.Contains(out, "directory") {
		t.Fatalf("stat dir: %v\n%s", err, out)
	}
	out, err = s.Run("df")
	if err != nil || !strings.Contains(out, "MemTotal:") {
		t.Fatalf("df: %v\n%s", err, out)
	}
}

func TestErrorsSurfaceOnTerminal(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("cat /tmp/missing")
	if err == nil {
		t.Fatal("cat of missing file should error")
	}
	if !strings.Contains(out, "ENOENT") {
		t.Fatalf("error not printed:\n%s", out)
	}
	if _, err := s.Run("frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if out, _ := s.Run(""); out != "" {
		t.Fatal("empty line produced output")
	}
}

// TestEndlessInputStops reads /dev/zero, which never reaches EOF: each
// command stops at maxInput with an error naming the path, and the
// console holds at most maxInput bytes of its output.
func TestEndlessInputStops(t *testing.T) {
	for _, line := range []string{"cat /dev/zero", "wc /dev/zero", "grep x /dev/zero"} {
		t.Run(line, func(t *testing.T) {
			s := newShell(t)
			out, err := s.Run(line)
			if !errors.Is(err, errInputTooLong) || !strings.Contains(err.Error(), "/dev/zero") {
				t.Fatalf("err = %v, want one naming /dev/zero and wrapping %v", err, errInputTooLong)
			}
			if len(out) > maxInput+256 {
				t.Fatalf("console grew %d bytes, budget %d", len(out), maxInput)
			}
			if !strings.HasSuffix(out, "input exceeds 1048576 bytes\n") {
				t.Fatalf("console does not end with the error: %q", out[max(0, len(out)-80):])
			}
		})
	}
}

func TestEverythingRanOnTheGPU(t *testing.T) {
	s := newShell(t)
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	if s.M.GPU.KernelsLaunched == 0 {
		t.Fatal("no kernel launched")
	}
	if s.M.Genesys.Invocations < 3 {
		t.Fatalf("only %d GPU syscalls", s.M.Genesys.Invocations)
	}
}

func TestHelpListsCommandsAndFaultProfiles(t *testing.T) {
	s := newShell(t)
	out, err := s.Run("help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ls <dir>", "grep <word> <file...>",
		"interrupt-loss", "net-flaky", "/sys/genesys/faults"} {
		if !strings.Contains(out, want) {
			t.Errorf("help output lacks %q:\n%s", want, out)
		}
	}
}

func TestObservabilityCommands(t *testing.T) {
	s := newShell(t)
	// Earlier commands populate the tracer and metrics the views render.
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run("metrics")
	if err != nil || !strings.Contains(out, "genesys.invocations") {
		t.Fatalf("metrics: %v\n%s", err, out)
	}
	out, err = s.Run("util")
	if err != nil || !strings.Contains(out, "gpu.busy_cus") {
		t.Fatalf("util: %v\n%s", err, out)
	}
	out, err = s.Run("critpath")
	if err != nil || !strings.Contains(out, "critical-path attribution") {
		t.Fatalf("critpath: %v\n%s", err, out)
	}
	if !strings.Contains(out, "read") || !strings.Contains(out, "open") {
		t.Fatalf("critpath table lacks the reads the shell issued:\n%s", out)
	}
	// No fleet run on this machine, so the SLO view reports the absence.
	out, err = s.Run("slo")
	if err != nil || !strings.Contains(out, "no service-level report") {
		t.Fatalf("slo: %v\n%s", err, out)
	}
}

func TestUsageAndNames(t *testing.T) {
	names := CommandNames()
	if len(names) != 13 || names[0] != "cat" {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(Usage(), "grep <word> <file...>") {
		t.Fatalf("usage:\n%s", Usage())
	}
	if !strings.Contains(Usage(), "help") {
		t.Fatalf("usage lacks help:\n%s", Usage())
	}
}

// TestTopGolden pins the exact two-frame `top` output of a fixed
// session: the dashboard is rendered from deterministic counters, so
// any drift here is a real behavior change (update the golden
// deliberately). The second frame must show virtual time advancing.
func TestTopGolden(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	s := New(m)
	if err := m.WriteFile("/tmp/poem.txt", []byte("roses are red\nviolets are blue\nGPUs make syscalls\nand so can you\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run("top 2 500")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `genesys top — t=209.06us
util  cores=0 waiting=0 workers=1 cus=1 resident_waves=1 halted_waves=0 polling_waves=1
engine  events=156 ready-fast=19 callbacks=83 switches=78 pending=1 procs=6
far     scheduled=0 canceled=0 pending=0 peak=0
kernel  workers=3 idle=2 queue=0 tasks=7
slots   free=20479 populating=0 ready=0 processing=1 finished=0 outstanding=1
calls   invocations=7 batches=7 retransmits=0 traced=6 p50=24.55us p99=24.55us min=24.55us max=24.55us
flight  chains=6 anomalies=0 bundles=0 burn=0/0 (0.0% bad)

genesys top — t=831.81us
util  cores=0 waiting=0 workers=1 cus=1 resident_waves=1 halted_waves=0 polling_waves=1
engine  events=258 ready-fast=24 callbacks=143 switches=125 pending=1 procs=6
far     scheduled=1 canceled=0 pending=0 peak=1
kernel  workers=3 idle=2 queue=0 tasks=12
slots   free=20479 populating=0 ready=0 processing=1 finished=0 outstanding=1
calls   invocations=12 batches=12 retransmits=0 traced=11 p50=24.55us p99=24.55us min=24.55us max=24.55us
flight  chains=11 anomalies=0 bundles=0 burn=0/0 (0.0% bad)
`
	if out != golden {
		t.Fatalf("top output drifted from golden:\ngot:\n%s\nwant:\n%s", out, golden)
	}
}

// TestTopBadArgs: every malformed frames/interval argument must be a
// usage error that names the bad value. The interval cases guard a real
// hang class — `top N 0` used to be representable as frames that never
// advance virtual time, re-rendering the same instant N times.
func TestTopBadArgs(t *testing.T) {
	s := newShell(t)
	for _, tc := range []struct{ line, want string }{
		{"top zero", "bad frames"},
		{"top 0", "bad frames"},
		{"top -2", "bad frames"},
		{"top 2x", "bad frames"},
		{"top 1 -5", "bad interval_us"},
		{"top 2 0", "bad interval_us"},
		{"top 2 500x", "bad interval_us"},
		{"top 2 1e3", "bad interval_us"},
		{"top 101", "bad frames"},
		{"top 2 1000001", "bad interval_us"},
		{"top 2 9223372036854775", "bad interval_us"},
	} {
		out, err := s.Run(tc.line)
		if err == nil || !strings.Contains(out, tc.want) || !strings.Contains(out, "usage: top [frames [interval_us]]") {
			t.Fatalf("%s: err=%v out=%q, want %q + usage", tc.line, err, out, tc.want)
		}
	}
	// A usage error must not advance the session: the next valid render
	// still works.
	if _, err := s.Run("top 1"); err != nil {
		t.Fatalf("top 1 after bad args: %v", err)
	}
}

func TestFlightCommand(t *testing.T) {
	s := newShell(t)
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run("flight")
	if err != nil {
		t.Fatalf("flight: %v\n%s", err, out)
	}
	for _, want := range []string{"flight recorder", "chains retained", "anomalies 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight output lacks %q:\n%s", want, out)
		}
	}
}
