package ckpt

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"genesys/internal/platform"
	"genesys/internal/sim"
)

func newMachine(t *testing.T, seed int64) *platform.Machine {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	m := newMachine(t, 1)
	m.NewProcess("test")
	if err := m.WriteFile("/tmp/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s := Capture(m, Meta{Kind: "bench", Case: "x", Seed: 1})
	if len(s.Sections) != 8 {
		t.Fatalf("want 8 sections, got %d", len(s.Sections))
	}
	names := make([]string, len(s.Sections))
	for i, sec := range s.Sections {
		names[i] = sec.Name
	}
	want := "sim genesys gpu oskern fs blockdev netstack obs"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("section order %q, want %q", got, want)
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("encode-decode-encode is not stable")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := newMachine(t, 1)
	s := Capture(m, Meta{Kind: "bench", Seed: 1})
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside a base64 section payload.
	idx := bytes.Index(b, []byte(`"data"`))
	if idx < 0 {
		t.Fatal("no data field in encoding")
	}
	corrupt := append([]byte(nil), b...)
	for i := idx + 10; i < len(corrupt); i++ {
		if corrupt[i] >= 'a' && corrupt[i] < 'z' {
			corrupt[i]++
			break
		}
	}
	if _, err := Decode(corrupt); err == nil {
		t.Error("corrupted snapshot decoded clean")
	}
	// Wrong version is rejected too.
	s.Version = Version + 1
	b3, _ := s.Encode()
	if _, err := Decode(b3); err == nil {
		t.Error("future-version snapshot decoded clean")
	}
	// So is a cut before time zero, which would have FastForward rewind
	// the clock.
	s.Version = Version
	s.CutAt = -1
	b4, _ := s.Encode()
	if _, err := Decode(b4); err == nil || !strings.Contains(err.Error(), "cut_at_ns -1") {
		t.Errorf("negative cut decoded: err=%v", err)
	}
}

func TestWriteLoad(t *testing.T) {
	m := newMachine(t, 3)
	s := Capture(m, Meta{Kind: "gsh", Seed: 3, History: []string{"ls /"}})
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Meta.Kind != "gsh" || s2.Meta.Seed != 3 || len(s2.Meta.History) != 1 {
		t.Errorf("meta round-trip: %+v", s2.Meta)
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	m := newMachine(t, 1)
	s := Capture(m, Meta{Kind: "bench", Seed: 1})
	if err := Verify(m, s); err != nil {
		t.Fatalf("verify against self: %v", err)
	}
	// Mutate the machine: a new file changes the fs section.
	if err := m.WriteFile("/tmp/diverge", []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := Verify(m, s)
	if err == nil {
		t.Fatal("verify passed on a diverged machine")
	}
	me, ok := err.(*MismatchError)
	if !ok {
		t.Fatalf("want *MismatchError, got %T: %v", err, err)
	}
	if me.Section != "fs" {
		t.Errorf("divergence attributed to %q, want fs", me.Section)
	}
	if me.Diff == "" {
		t.Error("mismatch carries no diagnostic diff")
	}
}

func TestVerifyWrongInstant(t *testing.T) {
	m := newMachine(t, 1)
	s := Capture(m, Meta{Kind: "bench", Seed: 1})
	if err := m.E.RunUntil(10 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := Verify(m, s); err == nil {
		t.Error("verify at the wrong instant passed")
	}
}

// TestFastForwardIdleMachine checks the degenerate restore: a snapshot
// of an idle machine fast-forwards by pure clock advance.
func TestFastForwardIdleMachine(t *testing.T) {
	m := newMachine(t, 5)
	if err := m.E.RunUntil(100 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	s := Capture(m, Meta{Kind: "bench", Seed: 5})
	m2 := newMachine(t, 5)
	if err := FastForward(m2, s); err != nil {
		t.Fatalf("fast-forward: %v", err)
	}
	if m2.E.Now() != sim.Time(s.CutAt) {
		t.Errorf("machine at t=%v, want %v", m2.E.Now(), sim.Time(s.CutAt))
	}
}
