package gsh

import (
	"path/filepath"
	"strings"
	"testing"

	"genesys/internal/platform"
)

// ckptShell builds a shell whose prologue goes through Shell.WriteFile,
// so the session is checkpointable.
func ckptShell(t *testing.T) *Shell {
	t.Helper()
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	s := New(m)
	if err := s.WriteFile("/tmp/poem.txt",
		[]byte("roses are red\nviolets are blue\nGPUs make syscalls\nand so can you\n")); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCkptSaveLoadRoundTrip saves a session mid-way, restores it into a
// fresh shell, and checks the restored session continues exactly like
// the original: same command output, same syscall counters.
func TestCkptSaveLoadRoundTrip(t *testing.T) {
	s := ckptShell(t)
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	out, err := s.Run("ckpt save " + path)
	if err != nil {
		t.Fatalf("ckpt save: %v", err)
	}
	if !strings.Contains(out, "saved session") {
		t.Fatalf("save output: %q", out)
	}

	// The original continues.
	origOut, err := s.Run("grep blue /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	origCalls := s.M.Genesys.Invocations

	// The restored session continues identically.
	restored, err := Restore(path)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(restored.M.Shutdown)
	restOut, err := restored.Run("grep blue /tmp/poem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if restOut != origOut {
		t.Errorf("restored session diverges:\noriginal: %q\nrestored: %q", origOut, restOut)
	}
	if got := restored.M.Genesys.Invocations; got != origCalls {
		t.Errorf("restored session at %d invocations, original at %d", got, origCalls)
	}
}

// TestCkptLoadSwapsSession checks the in-shell "ckpt load" replaces the
// running session with the restored one.
func TestCkptLoadSwapsSession(t *testing.T) {
	s := ckptShell(t)
	if _, err := s.Run("wc /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	if _, err := s.Run("ckpt save " + path); err != nil {
		t.Fatal(err)
	}
	savedCalls := s.M.Genesys.Invocations

	// Mutate the session past the save point, then load it back.
	if _, err := s.Run("cat /tmp/poem.txt"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run("ckpt load " + path)
	if err != nil {
		t.Fatalf("ckpt load: %v", err)
	}
	t.Cleanup(s.M.Shutdown)
	if !strings.Contains(out, "restored session") || !strings.Contains(out, "verified") {
		t.Fatalf("load output: %q", out)
	}
	if got := s.M.Genesys.Invocations; got != savedCalls {
		t.Errorf("loaded session at %d invocations, saved at %d", got, savedCalls)
	}
	// The swapped-in machine keeps working.
	if out, err := s.Run("stat /tmp/poem.txt"); err != nil || !strings.Contains(out, "Size: 65") {
		t.Fatalf("post-load stat: %v\n%s", err, out)
	}
}

// TestCkptInfo describes a snapshot without restoring it.
func TestCkptInfo(t *testing.T) {
	s := ckptShell(t)
	if _, err := s.Run("ls /tmp"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	if _, err := s.Run("ckpt save " + path); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run("ckpt info " + path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kind=gsh", "history: 2 entries",
		"section sim", "section genesys", "section netstack", "section obs"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
}

// TestCkptErrors covers the command's usage and failure paths.
func TestCkptErrors(t *testing.T) {
	s := ckptShell(t)
	if _, err := s.Run("ckpt save"); err == nil {
		t.Error("ckpt save without a file accepted")
	}
	if _, err := s.Run("ckpt frobnicate x"); err == nil {
		t.Error("unknown ckpt verb accepted")
	}
	if _, err := s.Run("ckpt load " + filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("ckpt load of missing file accepted")
	}
}

// TestSessionCommandsNotRecorded checks ckpt/replay lines stay out of
// the checkpoint history (a restored session must not re-save files or
// re-run replays).
func TestSessionCommandsNotRecorded(t *testing.T) {
	s := ckptShell(t)
	if _, err := s.Run("ls /tmp"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	if _, err := s.Run("ckpt save " + path); err != nil {
		t.Fatal(err)
	}
	for _, line := range s.history {
		if strings.HasPrefix(line, "ckpt") || strings.HasPrefix(line, "replay") {
			t.Errorf("session command recorded in history: %q", line)
		}
	}
	// 1 writefile + 1 ls.
	if len(s.history) != 2 {
		t.Errorf("history = %q, want 2 entries", s.history)
	}
}

// TestHelpListsSessionCommands checks the help text documents ckpt and
// replay.
func TestHelpListsSessionCommands(t *testing.T) {
	s := ckptShell(t)
	out, err := s.Run("help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ckpt save <file>", "ckpt load <file>", "replay <file>"} {
		if !strings.Contains(out, want) {
			t.Errorf("help lacks %q:\n%s", want, out)
		}
	}
}
