// Command genesys drives the GENESYS reproduction: it regenerates the
// paper's tables and figures, prints the system call classification, and
// describes the simulated platform.
//
// Usage:
//
//	genesys run all            # regenerate every table and figure
//	genesys run fig7 fig13b    # regenerate specific experiments
//	genesys run -runs 10 fig8  # more repetitions (tighter error bars)
//	genesys list               # list experiment IDs
//	genesys classify           # full syscall classification (§IV)
//	genesys platform           # Table III analogue
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"genesys/internal/core"
	"genesys/internal/experiments"
	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/workloads"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  genesys run [-runs N] [-seed S] [-parallel N] [-trace FILE] [-trace-cap N] [-flight-out DIR]
              [-metrics] [-critpath] [-faults P] <experiment|all> [...]
  genesys bench [-seed S | -seeds S1,S2,..] [-parallel N] [-out DIR] [-ckpt-at DUR]
                [-cpuprofile FILE] [-memprofile FILE] [case ...]
  genesys sentry [-baseline DIR] -fresh DIR
  genesys ckpt -case NAME [-seed S] -at DUR -out FILE
  genesys restore [-out DIR] FILE
  genesys record -case NAME [-seed S] -out FILE
  genesys replay [-workers N,N,..] [-coalesce DUR,DUR,..] [-coalesce-max N] [-json] FILE
  genesys list
  genesys classify
  genesys apps
  genesys platform

run flags:
  -parallel N   simulate up to N data points (one machine each) at once
                (default: host cores); tables are identical at any N
  -trace FILE   write a Chrome trace-event JSON (chrome://tracing, Perfetto)
                of the first simulated machine to FILE
  -trace-cap N  event-log ring capacity per machine (default %d; long
                fleet runs wrap the default and drop the early window)
  -flight-out DIR
                write every flight-recorder anomaly bundle produced by
                the machines built (ANOMALY_m<k>_<seq>_<reason>.json)
  -metrics      print each experiment's final metrics registry snapshot
                (the /sys/genesys/metrics view)
  -critpath     print the critical-path attribution table of the first
                machine (the /sys/genesys/critpath view) after the runs
  -faults P     arm fault injection with profile P on every machine built
                (profiles: %v; -faults=help describes them)
  -fault-rate R per-opportunity injection probability (default %.2f)

bench: run the fixed deterministic perf suite, writing one
BENCH_<case>.json per case (all cases when none are named) and
printing each case's host wall time. -parallel N (default: host cores)
simulates up to N fully isolated machines concurrently — one per
(case, seed) — with results merged in case order, byte-identical to
-parallel 1; -seeds runs the suite under several seeds at once, each
seed's artifacts in OUT/seed-<S>/. With -ckpt-at, also write
CKPT_<case>.json — a snapshot of each case cut at the given virtual
instant (restore with 'genesys restore'). The printed wall times are
single samples; the host benchmark (bash benchmark/run.sh) measures
host cost with calibrated repeated runs.
bench cases: %v

ckpt/restore: checkpoint a bench case mid-run to a snapshot file;
restore rebuilds it, verifies bit-identity at the cut, runs it to
completion and writes the same BENCH_<case>.json a straight run would.

record/replay: record captures a run's GPU-to-kernel syscall stream as
a trace file; replay re-drives the stream against a bare kernel
pipeline (no workload), sweeping worker counts and coalescing windows.

sentry: diff a fresh bench-artifact directory against the committed
baselines (default DIR "baselines"), byte-exact on every virtual-time
artifact (BENCH_<case>.json, SLO_*.json, ANOMALY_*.json). Prints a
per-metric delta table; exits 1 on regression.

experiments: %v
`, obs.DefaultEventCap, fault.Profiles(), fault.DefaultRate,
		experiments.BenchNames(), experiments.IDs())
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	case "ckpt":
		ckptCmd(os.Args[2:])
	case "restore":
		restoreCmd(os.Args[2:])
	case "record":
		recordCmd(os.Args[2:])
	case "replay":
		replayCmd(os.Args[2:])
	case "sentry":
		sentryCmd(os.Args[2:])
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case "classify":
		classifyCmd()
	case "apps":
		fmt.Print(workloads.RenderTableI())
	case "platform":
		m := platform.New(platform.DefaultConfig())
		fmt.Println(m.Describe())
		m.Shutdown()
	default:
		usage()
	}
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	runs := fs.Int("runs", 3, "seeded repetitions per data point")
	seed := fs.Int64("seed", 1, "base seed")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the first machine to this file")
	showMetrics := fs.Bool("metrics", false, "print the metrics registry snapshot after each experiment")
	critpath := fs.Bool("critpath", false, "print the first machine's critical-path attribution table")
	faults := fs.String("faults", "", "fault-injection profile to arm on every machine ('help' lists profiles)")
	faultRate := fs.Float64("fault-rate", 0, "per-opportunity injection probability (0 = profile default)")
	traceCap := fs.Int("trace-cap", 0, "event-log ring capacity per machine (0 = default)")
	flightOut := fs.String("flight-out", "", "write flight-recorder anomaly bundles to this directory")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max data points simulated concurrently")
	_ = fs.Parse(args)
	if *faults == "help" {
		fmt.Print(fault.ProfileHelp())
		os.Exit(0)
	}
	if *faults != "" {
		if _, err := fault.PlanFor(*faults, *faultRate); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n%s", err, fault.ProfileHelp())
			os.Exit(1)
		}
	}
	ids := fs.Args()
	if len(ids) == 0 {
		usage()
	}
	o := experiments.Options{Runs: *runs, BaseSeed: *seed, Parallel: *parallel,
		FaultProfile: *faults, FaultRate: *faultRate, EventCap: *traceCap}

	// Observe every machine the experiments build, in submission order
	// once it has finished: event tracing is enabled on the first machine
	// only (so the exported trace is one coherent virtual-time timeline),
	// and the metrics registry of the most recent machine backs -metrics.
	// Flight recorders are collected from every machine — with -faults
	// the first machine is usually the fault-free baseline, so bundles
	// come from the later ones. Only what a flag asks for is kept, so a
	// plain run holds no finished machine.
	var traceLog *obs.EventLog
	var lastMetrics *obs.Registry
	var firstGenesys *core.Genesys
	var flights []*obs.Flight
	o.Observe = func(m *platform.Machine) {
		if *tracePath != "" && traceLog == nil {
			traceLog = m.Obs.Events
		}
		if *critpath && firstGenesys == nil {
			firstGenesys = m.Genesys
		}
		if *showMetrics {
			lastMetrics = m.Obs.Metrics
		}
		if *flightOut != "" {
			flights = append(flights, m.Obs.Flight)
		}
	}

	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		fn, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(1)
		}
		// Until an experiment has built a machine, the next one's first
		// machine records its timeline.
		o.TraceFirst = *tracePath != "" && traceLog == nil
		start := time.Now()
		tbl := fn(o)
		fmt.Println(tbl.Render())
		fmt.Printf("  (regenerated in %v wall time, %d run(s)/point)\n\n",
			time.Since(start).Round(time.Millisecond), *runs)
		if *showMetrics && lastMetrics != nil {
			fmt.Printf("--- metrics (%s, last machine) ---\n%s\n", id, lastMetrics.Render())
		}
	}

	if *critpath {
		if firstGenesys == nil {
			fmt.Fprintln(os.Stderr, "critpath: no traced machine")
		} else {
			fmt.Println(firstGenesys.Tracer().CritPath())
		}
	}

	if *tracePath != "" {
		if traceLog == nil {
			fmt.Fprintln(os.Stderr, "trace: no machine was built, nothing to export")
			os.Exit(1)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := traceLog.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d event(s) to %s (%d dropped by ring buffer)\n",
			traceLog.Len(), *tracePath, traceLog.Dropped())
	}

	if *flightOut != "" {
		if err := os.MkdirAll(*flightOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "flight-out: %v\n", err)
			os.Exit(1)
		}
		written := 0
		for k, fl := range flights {
			for _, b := range fl.Bundles() {
				name := fmt.Sprintf("ANOMALY_m%d_%s", k, b.Name()[len("ANOMALY_"):])
				path := filepath.Join(*flightOut, name)
				if err := os.WriteFile(path, b.JSON(), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "flight-out: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("flight bundle (%s) -> %s\n", b.Reason, path)
				written++
			}
		}
		if written == 0 {
			fmt.Println("flight-out: no anomaly bundles (no detector fired)")
		}
	}
}

func sentryCmd(args []string) {
	fs := flag.NewFlagSet("sentry", flag.ExitOnError)
	baseline := fs.String("baseline", "baselines", "committed baseline artifact directory")
	fresh := fs.String("fresh", "", "freshly generated bench artifact directory (required)")
	_ = fs.Parse(args)
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "sentry: -fresh DIR is required")
		os.Exit(2)
	}
	rep, err := experiments.RunSentry(*baseline, *fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Render())
	if rep.Failed() {
		os.Exit(1)
	}
}

// parseSeeds parses the -seeds list ("1,2,7") into machine seeds.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in -seeds", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds lists no seeds")
	}
	return out, nil
}

func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "machine seed")
	seeds := fs.String("seeds", "", "comma-separated machine seeds; each seed's artifacts land in OUT/seed-<S>/ (overrides -seed)")
	outDir := fs.String("out", ".", "directory the BENCH_<case>.json files are written to")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max machines simulated concurrently")
	ckptAt := fs.Duration("ckpt-at", 0, "also snapshot each case at this virtual instant (CKPT_<case>.json)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the suite to this file (requires -parallel 1)")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile taken after the suite to this file (requires -parallel 1)")
	_ = fs.Parse(args)
	opt := experiments.SuiteOptions{
		Cases:      fs.Args(),
		Seeds:      []int64{*seed},
		Parallel:   *parallel,
		CPUProfile: *cpuProfile,
		MemProfile: *memProfile,
	}
	if *seeds != "" {
		var err error
		if opt.Seeds, err = parseSeeds(*seeds); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
	}
	multiSeed := len(opt.Seeds) > 1
	// caseDir is where one unit's virtual-time artifacts land: flat for
	// a single seed (today's layout), per-seed subdirs for -seeds.
	caseDir := func(s int64) string {
		if !multiSeed {
			return *outDir
		}
		return filepath.Join(*outDir, fmt.Sprintf("seed-%d", s))
	}
	for _, s := range opt.Seeds {
		if err := os.MkdirAll(caseDir(s), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	suite, err := experiments.RunBenchSuite(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	// All writes and console lines happen after the merge, in the
	// suite's deterministic unit order — worker goroutines never touch
	// stdout or the filesystem, so -parallel N output is identical to
	// -parallel 1 modulo the wall times.
	for _, c := range suite.Cases {
		dir := caseDir(c.Seed)
		label := c.Name
		if multiSeed {
			label = fmt.Sprintf("%s@%d", c.Name, c.Seed)
		}
		path := filepath.Join(dir, "BENCH_"+c.Name+".json")
		if err := os.WriteFile(path, c.Result.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		anames := make([]string, 0, len(c.Artifacts))
		for aname := range c.Artifacts {
			anames = append(anames, aname)
		}
		sort.Strings(anames)
		for _, aname := range anames {
			apath := filepath.Join(dir, aname)
			if err := os.WriteFile(apath, c.Artifacts[aname], 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-16s artifact -> %s\n", label, apath)
		}
		calls := float64(0)
		if c.Wall > 0 {
			calls = float64(c.Result.Calls) / c.Wall.Seconds()
		}
		fmt.Printf("%-16s %6d calls  p50 %8.2fus  p99 %8.2fus  cpu %5.1f%%  %9.0f calls/s  -> %s (%v)\n",
			label, c.Result.Calls, c.Result.P50US, c.Result.P99US, c.Result.CPUUtilPct,
			calls, path, c.Wall.Round(time.Millisecond))
		if *ckptAt > 0 {
			spath := filepath.Join(dir, "CKPT_"+c.Name+".json")
			if err := experiments.CheckpointBench(c.Name, c.Seed, sim.Time(ckptAt.Nanoseconds()), spath); err != nil {
				fmt.Fprintf(os.Stderr, "bench: checkpoint %s: %v\n", c.Name, err)
				os.Exit(1)
			}
			fmt.Printf("%-16s snapshot at t=%v -> %s\n", label, *ckptAt, spath)
		}
	}
	fmt.Printf("suite wall %v (%d worker(s))\n", suite.Wall.Round(time.Millisecond), suite.Workers)
}

func classifyCmd() {
	fmt.Print(syscalls.ClassificationSummary())
	fmt.Println()
	for _, c := range []syscalls.Class{syscalls.ClassHardware, syscalls.ClassExtensive} {
		fmt.Printf("%s:\n", c)
		for _, in := range syscalls.Classification() {
			if in.Class == c {
				fmt.Printf("  %-24s %s\n", in.Name, in.Reason)
			}
		}
		fmt.Println()
	}
}
