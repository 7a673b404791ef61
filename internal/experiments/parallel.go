package experiments

// The multi-machine bench driver: a pool of workers runs fully isolated
// simulated machines concurrently in one host process, one per (case,
// seed) work unit. Isolation is structural — every machine owns its own
// sim.Engine, obs.Registry, obs.Flight, fault plan and artifact buffers
// (StartBench and Finish build all of them inside the worker goroutine
// and nothing escapes but the finished SuiteCase) — so a run with N
// workers produces BENCH_<case>.json / SLO_*.json / ANOMALY_*.json bytes
// identical to a run with one. Results are merged in work-unit order
// (seeds in the order given, cases in emission order), never in
// completion order, so everything downstream of the driver — file
// writes and console lines — is deterministic even though scheduling
// is not. Only the wall times reflect the actual execution. The same
// pool (forEach) runs experiment data points; see grid in harness.go.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// forEach is the package's one worker pool. It runs work(i) for every i
// in [0, n) on at most workers goroutines, and calls done(i), when set,
// on the calling goroutine in index order: as soon as unit i and every
// unit before it have finished. Workers share nothing but the index feed
// and whatever disjoint per-unit state work writes. At most 2×workers
// units are started and not yet done, which bounds what finished units
// waiting on a slower earlier one keep alive.
func forEach(n, workers int, work, done func(i int)) {
	if n == 0 {
		return
	}
	workers = max(1, min(workers, n))
	finished := make([]chan struct{}, n)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	inFlight := make(chan struct{}, 2*workers)
	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				work(i)
				close(finished[i])
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			inFlight <- struct{}{}
			feed <- i
		}
		close(feed)
	}()
	for i := 0; i < n; i++ {
		<-finished[i]
		if done != nil {
			done(i)
		}
		<-inFlight
	}
	wg.Wait()
}

// SuiteOptions parameterizes one bench-suite invocation.
type SuiteOptions struct {
	// Cases are the bench case names to run (all, in emission order,
	// when empty).
	Cases []string
	// Seeds are the machine seeds to run every case under (seed 1 when
	// empty). Each (case, seed) pair is one work unit with its own
	// machine.
	Seeds []int64
	// Parallel is the maximum number of machines simulated concurrently
	// (values < 1 mean 1).
	Parallel int

	// CPUProfile / MemProfile, when set, write pprof profiles covering
	// exactly the simulation work of the suite (not flag parsing or
	// artifact writes). Profiling requires Parallel == 1: one worker
	// attributes every sample to one machine's hot path, which is the
	// shape perf work needs — concurrent machines time-sharing the cores
	// would smear the profile across worker goroutines.
	CPUProfile string
	MemProfile string
}

// SuiteCase is one completed (case, seed) work unit.
type SuiteCase struct {
	Name      string
	Seed      int64
	Result    BenchResult
	Artifacts map[string][]byte
	Wall      time.Duration // host wall time of this unit
}

// SuiteResult is a completed bench-suite run: every work unit in
// deterministic merge order.
type SuiteResult struct {
	Cases   []SuiteCase
	Workers int           // workers used: min(Parallel, units)
	Wall    time.Duration // host wall time of the whole suite
}

// normalize resolves defaults and validates every case name up front,
// so an unknown case fails fast instead of after minutes of simulation.
func (o SuiteOptions) normalize() (SuiteOptions, error) {
	if len(o.Cases) == 0 {
		o.Cases = BenchNames()
	}
	for _, name := range o.Cases {
		if benchCaseByName(name) == nil {
			return o, fmt.Errorf("unknown case %q (have %v)", name, BenchNames())
		}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if (o.CPUProfile != "" || o.MemProfile != "") && o.Parallel != 1 {
		return o, fmt.Errorf("profiling requires -parallel 1 (got -parallel %d)", o.Parallel)
	}
	return o, nil
}

// RunBenchSuite runs the (case × seed) work grid, at most opt.Parallel
// machines at a time, and returns the merged results: seeds in the
// order given, cases in emission order within each seed — regardless of
// which unit finished first.
func RunBenchSuite(opt SuiteOptions) (*SuiteResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	type unit struct {
		name string
		seed int64
	}
	units := make([]unit, 0, len(opt.Seeds)*len(opt.Cases))
	for _, seed := range opt.Seeds {
		for _, name := range opt.Cases {
			units = append(units, unit{name, seed})
		}
	}
	out := make([]SuiteCase, len(units))
	errs := make([]error, len(units))
	runUnit := func(i int) {
		u := units[i]
		br, err := StartBench(u.name, u.seed)
		if err != nil {
			errs[i] = err
			return
		}
		defer br.Close()
		res, wall, artifacts, err := br.Finish()
		out[i] = SuiteCase{Name: u.name, Seed: u.seed, Result: res,
			Artifacts: artifacts, Wall: wall}
		errs[i] = err
	}
	if opt.CPUProfile != "" {
		f, err := os.Create(opt.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	start := time.Now()
	workers := min(opt.Parallel, len(units))
	forEach(len(units), workers, runUnit, nil)
	wall := time.Since(start)
	// First error in unit order, not completion order, so the reported
	// failure is deterministic too.
	for i := range units {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if opt.MemProfile != "" {
		f, err := os.Create(opt.MemProfile)
		if err != nil {
			return nil, fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // materialize final heap stats before the snapshot
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("memprofile: %w", werr)
		}
	}
	return &SuiteResult{Cases: out, Workers: workers, Wall: wall}, nil
}
