package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"genesys/internal/ckpt"
	"genesys/internal/replay"
	"genesys/internal/sim"
)

// TestResumeEqualsStraightRun is the core checkpoint/restore guarantee:
// cutting a bench run mid-flight, restoring the snapshot, and running
// to completion yields BENCH_<case>.json (and artifacts) byte-identical
// to the uninterrupted run.
func TestResumeEqualsStraightRun(t *testing.T) {
	for _, name := range []string{"syscall-idle", "coalesce-64", "fleet"} {
		name := name
		t.Run(name, func(t *testing.T) {
			straight, arts, err := RunBench(name, 1)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			// Cut mid-run: half the straight run's virtual duration.
			cut := sim.Time(straight.RuntimeMS * float64(sim.Millisecond) / 2)
			if cut <= 0 {
				t.Fatalf("straight run finished at t=0; no mid-run cut possible")
			}
			path := filepath.Join(t.TempDir(), "snap.json")
			if err := CheckpointBench(name, 1, cut, path); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			resumed, rarts, err := ResumeBench(path)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !bytes.Equal(resumed.JSON(), straight.JSON()) {
				t.Errorf("resumed result diverges from straight run:\nstraight: %s\nresumed:  %s",
					straight.JSON(), resumed.JSON())
			}
			if len(rarts) != len(arts) {
				t.Fatalf("artifact sets differ: straight %d, resumed %d", len(arts), len(rarts))
			}
			for k, v := range arts {
				if !bytes.Equal(rarts[k], v) {
					t.Errorf("artifact %s diverges after resume", k)
				}
			}
		})
	}
}

// TestCheckpointCapturePure asserts capturing a snapshot does not
// perturb the run: a run that was checkpointed mid-flight and then
// continued in the same machine matches the straight run.
func TestCheckpointCapturePure(t *testing.T) {
	straight, _, err := RunBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	br, err := StartBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	cut := sim.Time(straight.RuntimeMS * float64(sim.Millisecond) / 3)
	if err := br.M.E.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	s1 := ckpt.Capture(br.M, ckpt.Meta{Kind: "bench", Case: "syscall-loaded", Seed: 1})
	s2 := ckpt.Capture(br.M, ckpt.Meta{Kind: "bench", Case: "syscall-loaded", Seed: 1})
	for i := range s1.Sections {
		if s1.Sections[i].Digest != s2.Sections[i].Digest {
			t.Errorf("section %q: re-capture at the same instant differs", s1.Sections[i].Name)
		}
	}
	cont, _, _, err := br.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cont.JSON(), straight.JSON()) {
		t.Errorf("run continued after capture diverges from straight run:\nstraight: %s\ncontinued: %s",
			straight.JSON(), cont.JSON())
	}
}

// TestCheckpointWrongRecipeMismatch asserts restore verification
// catches a recipe that does not rebuild the recorded run.
func TestCheckpointWrongRecipeMismatch(t *testing.T) {
	br, err := StartBench("syscall-idle", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if err := br.M.E.RunUntil(50 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	s := ckpt.Capture(br.M, ckpt.Meta{Kind: "bench", Case: "syscall-idle", Seed: 1})
	s.Meta.Case = "syscall-loaded" // lie about the recipe
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeBench(path); err == nil {
		t.Fatal("restore with wrong recipe verified clean; want mismatch")
	}
}

// TestRestoreStatsSemantics pins the restore semantics of
// Engine.Stats() and the obs metrics registry: both are RESTORED — the
// deterministic fast-forward re-accumulates them to exactly the
// checkpointed values — never reset to zero. (DESIGN.md §10: a restored
// machine is indistinguishable from one that never stopped, including
// its telemetry.)
func TestRestoreStatsSemantics(t *testing.T) {
	br, err := StartBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	cut := 300 * sim.Microsecond
	if err := br.M.E.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	wantStats := br.M.E.Stats()
	wantObs := br.M.Obs.Metrics.Render()
	if wantStats.Scheduled == 0 || wantStats.ProcSwitches == 0 {
		t.Fatalf("cut too early, no activity to compare: %+v", wantStats)
	}
	snap := ckpt.Capture(br.M, ckpt.Meta{Kind: "bench", Case: "syscall-loaded", Seed: 1})

	restored, err := StartBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if gotFresh := restored.M.E.Stats(); gotFresh.Scheduled >= wantStats.Scheduled {
		t.Fatalf("fresh machine already has %d events before fast-forward", gotFresh.Scheduled)
	}
	if err := ckpt.FastForward(restored.M, snap); err != nil {
		t.Fatal(err)
	}
	if got := restored.M.E.Stats(); got != wantStats {
		t.Errorf("Engine.Stats() not restored:\n  checkpointed: %+v\n  restored:     %+v", wantStats, got)
	}
	if got := restored.M.Obs.Metrics.Render(); got != wantObs {
		t.Errorf("obs registry not restored:\n--- checkpointed\n%s\n--- restored\n%s", wantObs, got)
	}
}

// TestRecordReplayFleet records the fleet case's syscall stream and
// replays it against a bare kernel pipeline: every syscall number must
// complete exactly as many calls as were recorded.
func TestRecordReplayFleet(t *testing.T) {
	res, tr, err := RecordBench("fleet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) == 0 {
		t.Fatal("recorded trace is empty")
	}
	if res.Calls != len(tr.Entries) {
		t.Errorf("trace has %d entries, bench counted %d calls", len(tr.Entries), res.Calls)
	}
	if len(tr.Env) == 0 {
		t.Error("fleet trace has no env manifest (server sockets expected)")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(loaded, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Matches {
		t.Fatalf("replay diverges from recording:\n%s", rep.Render())
	}
	if rep.Completed != len(tr.Entries) {
		t.Errorf("completed %d of %d recorded calls", rep.Completed, len(tr.Entries))
	}
}

// TestRecordingIsPureTap asserts attaching a recorder does not perturb
// the run it records.
func TestRecordingIsPureTap(t *testing.T) {
	straight, _, err := RunBench("syscall-idle", 1)
	if err != nil {
		t.Fatal(err)
	}
	recorded, _, err := RecordBench("syscall-idle", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.JSON(), straight.JSON()) {
		t.Errorf("recorded run diverges from straight run:\nstraight: %s\nrecorded: %s",
			straight.JSON(), recorded.JSON())
	}
}

// TestReplaySweep exercises the sweep harness across worker counts.
func TestReplaySweep(t *testing.T) {
	_, tr, err := RecordBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	table, reps, err := ReplaySweep(tr, []int{2, 8}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reps))
	}
	for _, rep := range reps {
		if !rep.Matches {
			t.Errorf("workers=%d: replay diverges:\n%s", rep.Workers, rep.Render())
		}
	}
	if len(table.Rows) != 2 {
		t.Errorf("sweep table has %d rows, want 2", len(table.Rows))
	}
}
