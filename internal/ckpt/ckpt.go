// Package ckpt implements gem5-style checkpoint/restore for the
// simulated machine.
//
// Go cannot serialize goroutine stacks, and the simulator's live procs
// are goroutines parked at yield points — so a snapshot is not a byte
// image that can be thawed. Instead it exploits the engine's foundational
// guarantee: for a fixed seed, execution is bit-identical. A snapshot
// records (a) the *recipe* that built the run (which machine, which
// workload, which seed), (b) the virtual-time cut instant, and (c) a
// deterministic serialization of every subsystem's state at the cut,
// each section digested. Restore rebuilds the machine from the recipe,
// fast-forwards it with Engine.RunUntil(CutAt) — replaying exactly the
// event sequence the original run executed — and then proves it arrived
// at the same state by re-capturing every section and comparing bytes.
// Continuing from there executes the identical event sequence the
// straight run would have, so resume-equals-straight-run holds by
// construction and is verified in CI against BENCH_<case>.json
// byte-identity (DESIGN.md §10).
//
// The recipe interpretation lives with the code that owns the recipe:
// internal/experiments restores bench-case snapshots, internal/gsh
// restores shell sessions. This package owns the format, the capture,
// and the verification.
package ckpt

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"genesys/internal/platform"
	"genesys/internal/sim"
)

// Version is the snapshot format version. Decode rejects snapshots
// whose version differs: sections are compared byte-for-byte, so any
// change to a subsystem's serialization is a format change.
const Version = 2

// Meta is the recipe that rebuilds the checkpointed run.
type Meta struct {
	// Kind names the recipe interpreter: "bench" (internal/experiments)
	// or "gsh" (a shell session rebuilt from its command history).
	Kind string `json:"kind"`
	// Case is the bench case or workload name.
	Case string `json:"case,omitempty"`
	// Seed is the engine seed the machine was built with.
	Seed int64 `json:"seed"`
	// History is the command history of a gsh session (Kind "gsh").
	History []string `json:"history,omitempty"`
}

// Section is one subsystem's serialized state.
type Section struct {
	Name   string `json:"name"`
	Digest string `json:"digest"` // fnv64a of Data, hex
	Data   []byte `json:"data"`   // base64 in the JSON encoding
}

// Snapshot is a saved machine state: recipe + cut instant + sections.
type Snapshot struct {
	Version  int       `json:"version"`
	Meta     Meta      `json:"meta"`
	CutAt    int64     `json:"cut_at_ns"`
	Sections []Section `json:"sections"`
}

func digest(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sections captures every subsystem's serialized state, in a fixed
// order. Each CheckpointState is pure reads: no virtual time passes, no
// randomness is consumed, no events are scheduled — capturing a
// snapshot cannot perturb the run it captures.
func sections(m *platform.Machine) []Section {
	mk := func(name string, data []byte) Section {
		return Section{Name: name, Digest: digest(data), Data: data}
	}
	return []Section{
		mk("sim", m.E.CheckpointState()),
		mk("genesys", m.Genesys.CheckpointState()),
		mk("gpu", m.GPU.CheckpointState()),
		mk("oskern", m.OS.CheckpointState()),
		mk("fs", m.VFS.CheckpointState()),
		mk("blockdev", m.SSD.CheckpointState()),
		mk("netstack", m.Net.CheckpointState()),
		mk("obs", m.Obs.Metrics.CheckpointState()),
	}
}

// Capture snapshots the machine's state at the current virtual instant.
// The engine must be outside its loop (between Run/RunUntil calls).
func Capture(m *platform.Machine, meta Meta) *Snapshot {
	return &Snapshot{
		Version:  Version,
		Meta:     meta,
		CutAt:    int64(m.E.Now()),
		Sections: sections(m),
	}
}

// Encode serializes the snapshot as indented JSON (deterministic:
// struct-ordered keys, base64 section payloads).
func (s *Snapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses and version-checks a snapshot, verifying every
// section's digest against its payload (corruption surfaces at load,
// not as a confusing restore mismatch).
func Decode(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("ckpt: snapshot version %d, want %d", s.Version, Version)
	}
	for _, sec := range s.Sections {
		if d := digest(sec.Data); d != sec.Digest {
			return nil, fmt.Errorf("ckpt: section %q corrupt: digest %s, recorded %s",
				sec.Name, d, sec.Digest)
		}
	}
	return &s, nil
}

// Write encodes the snapshot to a file.
func (s *Snapshot) Write(path string) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// MismatchError reports a restore whose re-captured state diverged from
// the snapshot — the recipe did not rebuild the recorded run (wrong
// seed or workload, a non-deterministic subsystem, or a snapshot from a
// different build of the simulator).
type MismatchError struct {
	Section string
	Diff    string // first differing lines, for diagnosis
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: restored state diverged in section %q:\n%s", e.Section, e.Diff)
}

// firstDiff renders the first differing line of two section payloads.
func firstDiff(got, want []byte) string {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  restored: %s\n  snapshot: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("restored has %d lines, snapshot has %d", len(gl), len(wl))
}

// Verify re-captures every section from m and compares it byte-for-byte
// against the snapshot, returning a *MismatchError on the first
// divergence. The machine must be at the snapshot's cut instant.
func Verify(m *platform.Machine, s *Snapshot) error {
	if now := int64(m.E.Now()); now != s.CutAt {
		return fmt.Errorf("ckpt: machine at t=%d, snapshot cut at t=%d", now, s.CutAt)
	}
	got := sections(m)
	want := make(map[string][]byte, len(s.Sections))
	for _, sec := range s.Sections {
		want[sec.Name] = sec.Data
	}
	for _, sec := range got {
		w, ok := want[sec.Name]
		if !ok {
			return fmt.Errorf("ckpt: snapshot has no section %q", sec.Name)
		}
		if string(sec.Data) != string(w) {
			return &MismatchError{Section: sec.Name, Diff: firstDiff(sec.Data, w)}
		}
	}
	return nil
}

// FastForward deterministically re-executes a freshly-built machine to
// the snapshot's cut instant and verifies the arrival state. m must
// have been rebuilt from the snapshot's recipe and not yet run. On
// return the machine is bit-identical to the checkpointed one and can
// continue (Run) exactly as the original would have.
func FastForward(m *platform.Machine, s *Snapshot) error {
	if err := m.E.RunUntil(sim.Time(s.CutAt)); err != nil {
		return fmt.Errorf("ckpt: fast-forward: %w", err)
	}
	return Verify(m, s)
}
