package experiments

import (
	"fmt"

	"genesys/internal/ckpt"
	"genesys/internal/replay"
	"genesys/internal/sim"
)

// This file is the bench-suite face of checkpoint/restore and
// record/replay (DESIGN.md §10): the experiments package owns the
// "bench" recipe — a (case, seed) pair rebuilds the machine — so it is
// the layer that interprets bench snapshots and records bench traces.

// CheckpointBench stages the named bench case, runs it to the cut
// instant, and writes the snapshot. The cut may fall anywhere in the
// run, including past quiescence (the snapshot then captures the final
// state).
func CheckpointBench(name string, seed int64, cutAt sim.Time, path string) error {
	br, err := StartBench(name, seed)
	if err != nil {
		return err
	}
	defer br.Close()
	if err := br.M.E.RunUntil(cutAt); err != nil {
		return err
	}
	s := ckpt.Capture(br.M, ckpt.Meta{Kind: "bench", Case: name, Seed: seed})
	return s.Write(path)
}

// ResumeBench restores a bench snapshot — rebuild from the recipe,
// fast-forward to the cut, verify bit-identity — and runs the case to
// completion. The returned result and artifacts are byte-identical to a
// straight run's (the CI gate).
func ResumeBench(path string) (BenchResult, map[string][]byte, error) {
	s, err := ckpt.Load(path)
	if err != nil {
		return BenchResult{}, nil, err
	}
	if s.Meta.Kind != "bench" {
		return BenchResult{}, nil,
			fmt.Errorf("bench: snapshot kind %q, want \"bench\" (a %q snapshot restores elsewhere)",
				s.Meta.Kind, s.Meta.Kind)
	}
	br, err := StartBench(s.Meta.Case, s.Meta.Seed)
	if err != nil {
		return BenchResult{}, nil, err
	}
	defer br.Close()
	if err := ckpt.FastForward(br.M, s); err != nil {
		return BenchResult{}, nil, err
	}
	res, _, artifacts, err := br.Finish()
	return res, artifacts, err
}

// RecordBench runs the named bench case with a syscall recorder
// attached and returns both the usual result and the captured trace.
// Recording is a pure tap, so the result stays byte-identical to an
// unrecorded run.
func RecordBench(name string, seed int64) (BenchResult, *replay.Trace, error) {
	br, err := StartBench(name, seed)
	if err != nil {
		return BenchResult{}, nil, err
	}
	defer br.Close()
	rec := replay.NewRecorder()
	br.M.Genesys.SetRecorder(rec)
	// Env manifest: the staged (pre-run) fd table of the process GPU
	// syscalls execute in — descriptors the run itself opens are
	// recreated by replaying their open calls.
	var env []replay.EnvFD
	if pr := br.M.Genesys.Process(); pr != nil {
		env = replay.CaptureEnv(pr)
	}
	res, _, _, err := br.Finish()
	if err != nil {
		return BenchResult{}, nil, err
	}
	return res, rec.Finalize(name, seed, env), nil
}

// ReplaySweep replays one trace across worker-count and coalescing
// configurations — the isolated-pipeline sweep a recorded application
// trace buys (no workload procs, just the kernel pipeline under the
// recorded syscall stream).
func ReplaySweep(tr *replay.Trace, workers []int, windows []sim.Time, coalesceMax int) (*Table, []*replay.Report, error) {
	if len(workers) == 0 {
		workers = []int{0}
	}
	if len(windows) == 0 {
		windows = []sim.Time{0}
	}
	t := &Table{
		ID:    "replay",
		Title: fmt.Sprintf("replay sweep of %q (%d syscalls)", tr.Case, len(tr.Entries)),
		Note: "Each cell replays the identical recorded syscall stream against a fresh\n" +
			"kernel pipeline; only the swept knob changes.",
		Header: []string{"workers", "coalesce", "virtual time", "batches", "mean (us)", "p99 (us)", "fidelity"},
	}
	var reps []*replay.Report
	for _, w := range workers {
		for _, win := range windows {
			rep, err := replay.Run(tr, replay.Options{
				Workers: w, CoalesceWindow: win, CoalesceMax: coalesceMax,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("replay sweep (workers=%d coalesce=%v): %w", w, win, err)
			}
			reps = append(reps, rep)
			fidelity := "match"
			if !rep.Matches {
				fidelity = "MISMATCH"
			}
			coal := "off"
			if win > 0 {
				coal = win.String()
			}
			t.AddRow(fmt.Sprint(rep.Workers), coal, sim.Time(rep.DurationNS).String(),
				fmt.Sprint(rep.Batches), fmt.Sprintf("%.2f", rep.MeanUS),
				fmt.Sprintf("%.2f", rep.P99US), fidelity)
		}
	}
	return t, reps, nil
}
