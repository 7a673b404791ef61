package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/workloads"
)

// assertSuitesIdentical compares every virtual-time artifact of two
// suite runs byte-for-byte: BENCH snapshots, SLO reports and any
// anomaly bundles. Wall times are exempt.
func assertSuitesIdentical(t *testing.T, label string, seq, par *SuiteResult) {
	t.Helper()
	if len(seq.Cases) != len(par.Cases) {
		t.Fatalf("%s: unit count diverged: %d vs %d", label, len(seq.Cases), len(par.Cases))
	}
	for i := range seq.Cases {
		a, b := seq.Cases[i], par.Cases[i]
		if a.Name != b.Name || a.Seed != b.Seed {
			t.Fatalf("%s: merge order diverged at %d: %s@%d vs %s@%d",
				label, i, a.Name, a.Seed, b.Name, b.Seed)
		}
		if !bytes.Equal(a.Result.JSON(), b.Result.JSON()) {
			t.Fatalf("%s: BENCH_%s.json (seed %d) not byte-identical:\n%s\nvs\n%s",
				label, a.Name, a.Seed, a.Result.JSON(), b.Result.JSON())
		}
		if len(a.Artifacts) != len(b.Artifacts) {
			t.Fatalf("%s: %s@%d artifact count diverged: %d vs %d",
				label, a.Name, a.Seed, len(a.Artifacts), len(b.Artifacts))
		}
		for name, data := range a.Artifacts {
			if !bytes.Equal(data, b.Artifacts[name]) {
				t.Fatalf("%s: artifact %s (%s@%d) not byte-identical",
					label, name, a.Name, a.Seed)
			}
		}
	}
}

// TestParallelSuiteMatchesSequential is the byte-identity property the
// parallel driver is gated on: for every seed, -parallel N produces
// BENCH/SLO/ANOMALY artifacts byte-identical to -parallel 1, across two
// seeds and two values of N. The full (case × seed) grid runs under
// N=4; a subset including the fleet case re-runs under N=2.
func TestParallelSuiteMatchesSequential(t *testing.T) {
	seeds := []int64{1, 2}
	seq, err := RunBenchSuite(SuiteOptions{Seeds: seeds, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par4, err := RunBenchSuite(SuiteOptions{Seeds: seeds, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSuitesIdentical(t, "parallel=4", seq, par4)
	if par4.Workers != 4 {
		t.Fatalf("parallel=4 used %d workers", par4.Workers)
	}
	if testing.Short() {
		t.Skip("skipping parallel=2 leg in -short mode")
	}
	subset := []string{"syscall-idle", "coalesce-64", "fleet"}
	seq2, err := RunBenchSuite(SuiteOptions{Cases: subset, Seeds: seeds, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par2, err := RunBenchSuite(SuiteOptions{Cases: subset, Seeds: seeds, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSuitesIdentical(t, "parallel=2", seq2, par2)
	if par2.Workers != 2 {
		t.Fatalf("parallel=2 used %d workers", par2.Workers)
	}
}

// TestParallelSuiteMergeOrder: results merge in work-unit order (seeds
// as given, cases in emission order) with a host wall time per unit —
// never in completion order.
func TestParallelSuiteMergeOrder(t *testing.T) {
	cases := []string{"syscall-idle", "net-loopback"}
	seeds := []int64{5, 6}
	s, err := RunBenchSuite(SuiteOptions{Cases: cases, Seeds: seeds, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]interface{}{
		{"syscall-idle", int64(5)}, {"net-loopback", int64(5)},
		{"syscall-idle", int64(6)}, {"net-loopback", int64(6)},
	}
	if len(s.Cases) != len(want) {
		t.Fatalf("unit count %d", len(s.Cases))
	}
	for i, c := range s.Cases {
		if c.Name != want[i][0] || c.Seed != want[i][1] {
			t.Fatalf("unit %d = %s@%d, want %v", i, c.Name, c.Seed, want[i])
		}
		if c.Wall <= 0 || c.Wall > s.Wall {
			t.Fatalf("unit %d wall %v outside suite wall %v", i, c.Wall, s.Wall)
		}
	}
	if s.Workers != 4 {
		t.Fatalf("parallel=4 over 4 units used %d workers", s.Workers)
	}
}

// TestSuiteProfiles: with one worker, -cpuprofile and -memprofile each
// write a gzip-compressed pprof file; with more than one worker a
// profile request errors before any machine is built or file created.
func TestSuiteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if _, err := RunBenchSuite(SuiteOptions{Cases: []string{"syscall-idle"}, Parallel: 1,
		CPUProfile: cpu, MemProfile: mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s: %d bytes, not a gzip pprof file", filepath.Base(path), len(b))
		}
	}
	bad := filepath.Join(dir, "parallel.pprof")
	if _, err := RunBenchSuite(SuiteOptions{Cases: []string{"syscall-idle"}, Parallel: 2,
		CPUProfile: bad}); err == nil {
		t.Fatal("profiling accepted with -parallel 2")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("rejected profile run created %s (stat: %v)", filepath.Base(bad), err)
	}
}

// TestParallelSuiteUnknownCaseFailsFast: a bad case name errors before
// any machine is built.
func TestParallelSuiteUnknownCaseFailsFast(t *testing.T) {
	if _, err := RunBenchSuite(SuiteOptions{Cases: []string{"fleet", "no-such-case"}, Parallel: 8}); err == nil {
		t.Fatal("unknown case accepted")
	}
}

// chaosFleetBundles is chaosFleet without the testing.T plumbing, so it
// can run on worker goroutines (t.Fatal must not leave the test
// goroutine).
func chaosFleetBundles(seed int64) ([]*obs.Bundle, error) {
	plan, err := fault.PlanFor("worker-stall", 0.05)
	if err != nil {
		return nil, err
	}
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	cfg.Faults = &plan
	m := platform.New(cfg)
	defer m.Shutdown()
	fc := workloads.DefaultFleetConfig(800)
	fc.Seed = seed
	if _, err := workloads.RunFleet(m, fc); err != nil {
		return nil, err
	}
	return m.Obs.Flight.Bundles(), nil
}

// TestParallelChaosBundlesMatchSequential extends the byte-identity bar
// to faulted machines: three chaos fleet machines (two sharing a seed)
// simulated concurrently must produce exactly the anomaly bundles a
// sequential run of each seed produces — fault plans, injector RNG
// streams and flight recorders are per-machine, and running them side
// by side must not perturb any of them.
func TestParallelChaosBundlesMatchSequential(t *testing.T) {
	seeds := []int64{3, 4, 3}
	want := make([][]*obs.Bundle, len(seeds))
	for i, seed := range seeds {
		b, err := chaosFleetBundles(seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	if len(want[0]) == 0 {
		t.Fatal("chaos fleet run tripped no detector")
	}
	got := make([][]*obs.Bundle, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i], errs[i] = chaosFleetBundles(seed)
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: bundle count %d vs sequential %d", seeds[i], len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j].Name() != want[i][j].Name() ||
				!bytes.Equal(got[i][j].JSON(), want[i][j].JSON()) {
				t.Fatalf("seed %d: bundle %d (%s) diverged from sequential run",
					seeds[i], j, want[i][j].Name())
			}
		}
	}
}
