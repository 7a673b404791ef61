// Command genesys-bench is the simulator's host benchmark. It runs named
// workloads through the simulator's public functions, times them from
// outside, normalises host times by a calibration loop, checks every
// repetition's virtual-time outputs against golden digests, and in a
// separate traced run attributes host time and counts to each layer.
//
// Run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -workloads fleet,ssd-rw -out results.json
//	bash benchmark/run.sh --trace 1 -trace-dir prof
//	bash benchmark/run.sh golden
//	bash benchmark/run.sh compare OLD.json NEW.json
//
// With --workload it runs that workload in this process and prints, as its
// last line, one JSON object with keys correct, attempted, failed and
// metrics. Without it, it runs each workload in turn in a child process.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceDir string
	out      string
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "golden":
			return cmdGolden(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	fl := flag.NewFlagSet("genesys-bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "run only this workload, in this process")
	subset := fl.String("workloads", "", "comma-separated workloads to run, each in a child process (default: all)")
	var o options
	fl.Int64Var(&o.seed, "seed", 1, "workload seed: generates the inputs and seeds the machines")
	fl.Float64Var(&o.seconds, "seconds", 20, "seconds of timed repetitions per workload")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	fl.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for the traced run's profiles, spans.json and layers.json")
	fl.StringVar(&o.out, "out", "", "append this run's results to this JSON file (input to compare)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fl.Usage()
		return 2
	}
	o.traced = *trace == 1
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		return runWorkload(w, o)
	}
	names := make([]string, 0, len(allWorkloads))
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	if *subset != "" {
		names = strings.Split(*subset, ",")
		for _, n := range names {
			if _, ok := workloadByName(n); !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q\n", n)
				return 2
			}
		}
	}
	return runChildren(names, o)
}

// runChildren runs each workload in its own child process, one at a time,
// so each gets a fresh heap and its own peak-RSS reading.
func runChildren(names []string, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, n := range names {
		trace := "0"
		if o.traced {
			trace = "1"
		}
		args := []string{"--workload", n, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", trace, "-trace-dir", o.traceDir}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// minReps is the fewest timed repetitions a run makes, however long they
// take, so every median rests on at least three values.
const minReps = 3

// calibSpacing is how much repetition time one extra calibration covers.
const calibSpacing = 2 * time.Second

// runWorkload runs one workload: an optional untimed warm-up, then timed
// repetitions for the configured seconds (half of them when traced, the
// other half profiled), each after a calibration and a forced collection.
func runWorkload(w workload, o options) int {
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep := w.prepare(o.seed)
	if w.warmup {
		if _, err := rep(nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: warm-up: %v\n", w.name, err)
			return 1
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		budget /= 2
	}
	var d runData
	var ms0, ms1 runtime.MemStats
	var last time.Duration
	// Stop once the next repetition would more likely end past the budget
	// than before it.
	for start := time.Now(); len(d.reps) < minReps || time.Since(start)+last/2 < budget; {
		// One calibration, plus one per calibSpacing of the previous
		// repetition, so long repetitions get as well-sampled a factor as
		// short ones.
		d.calib = append(d.calib, calibrate(1+int(last/calibSpacing))...)
		// Every repetition starts, as a new process would, with no free
		// memory kept from earlier ones. Otherwise how much the background
		// scavenger had returned to the OS decided how much of it the
		// repetition had to fault in again.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms0)
		r, err := rep(nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: rep %d: %v\n", w.name, len(d.reps), err)
			return 1
		}
		d.reps = append(d.reps, r)
		last = r.wall()
		d.allocs = append(d.allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		d.gcs = append(d.gcs, float64(ms1.NumGC-ms0.NumGC))
	}

	digests := make([]string, len(d.reps))
	for i, r := range d.reps {
		digests[i] = r.digest
	}
	golden := g.digest(o.seed, w.name)
	for i, wrong := range checkDigests(digests, golden) {
		if wrong {
			d.reps[i].failed = d.reps[i].attempted
			fmt.Fprintf(os.Stderr, "%s: rep %d: virtual-time outputs differ (digest %s, want %s)\n",
				w.name, i, digests[i], golden)
		}
	}
	var attempted, failed int64
	for _, r := range d.reps {
		attempted += r.attempted
		failed += r.failed
	}
	correct := failed == 0

	if o.traced {
		if err := traceRun(w, o, rep, &d); err != nil {
			fmt.Fprintf(os.Stderr, "%s: traced run: %v\n", w.name, err)
			return 1
		}
	}
	d.rssMB = peakRSSMB()

	fmt.Printf("workload %s  seed %d  reps %d  host %.3fx reference  golden %s  correct %v  (%d attempted, %d failed)\n",
		w.name, o.seed, len(d.reps), calibFactor(d.calib), goldenState(golden), correct, attempted, failed)
	metrics := map[string]metricValue{}
	stats := map[string]metricStat{}
	if o.traced {
		vals := d.perLayer()
		for _, s := range perLayer() {
			metrics[s.Name] = metricValue{vals[s.Name], s.Unit}
			stats[s.Name] = metricStat{Value: vals[s.Name], Q1: vals[s.Name], Q3: vals[s.Name], N: 1, Unit: s.Unit}
			fmt.Printf("  %-30s %14.6g %s\n", s.Name, vals[s.Name], s.Unit)
		}
	} else {
		fmt.Printf("  %-12s %-5s %12s %12s %12s %4s %6s\n", "metric", "unit", "median", "q1", "q3", "n", "bound")
		e2e := d.endToEnd()
		for _, s := range endToEnd {
			v := e2e[s.Name]
			st := metricStat{Value: median(v), N: len(v), Unit: s.Unit}
			st.Q1, st.Q3 = quartiles(v)
			metrics[s.Name] = metricValue{st.Value, s.Unit}
			stats[s.Name] = st
			fmt.Printf("  %-12s %-5s %12.6g %12.6g %12.6g %4d %5.0f%%\n",
				s.Name, s.Unit, st.Value, st.Q1, st.Q3, st.N, 100*s.Bound)
		}
	}
	if o.out != "" {
		if err := appendRun(o.out, runRecord{Workload: w.name, Seed: o.seed, Traced: o.traced,
			Correct: correct, Reps: len(d.reps), HostFactor: calibFactor(d.calib),
			Metrics: stats}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func goldenState(golden string) string {
	if golden == "" {
		return "none for this seed (reps checked against each other)"
	}
	return "checked"
}

// traceRun profiles repetitions for the other half of the budget,
// between two calibrations, then times the layer probes, and writes the
// profile, the spans and the layer table under the trace directory.
func traceRun(w workload, o options, rep repFunc, d *runData) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	sp := &spanLog{}
	var prof bytes.Buffer
	d.tracedCalib = append(d.tracedCalib, calibrate(1)...)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	budget := time.Duration(o.seconds * float64(time.Second) / 2)
	for start := time.Now(); len(d.traced) < 1 || time.Since(start) < budget; {
		// Collect and free first, as before an untraced repetition, so the
		// two compare like with like; the collection shows in runtime.gc.
		debug.FreeOSMemory()
		sp.rep = len(d.traced)
		r, err := rep(sp)
		if err == nil && r.digest != d.reps[0].digest {
			err = fmt.Errorf("repetition %d: virtual-time outputs differ from the untraced ones", len(d.traced))
		}
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		d.traced = append(d.traced, r.wall())
	}
	pprof.StopCPUProfile()
	d.tracedCalib = append(d.tracedCalib, calibrate(1)...)

	d.probeStats = map[string]probeResult{}
	sp.rep = len(d.traced)
	for _, p := range probes {
		t := time.Now()
		res, err := runProbe(p)
		if err != nil {
			return err
		}
		sp.add(p.name, "probes", t, time.Now())
		d.probeStats[p.name] = res
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	d.layers = attribute(samples)
	fmt.Print(layerTable(w.name, d.layers))
	if err := os.WriteFile(filepath.Join(o.traceDir, w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	pid := 1
	for i, x := range allWorkloads {
		if x.name == w.name {
			pid = i + 1
		}
	}
	if err := mergeSpans(filepath.Join(o.traceDir, "spans.json"), w.name, pid, sp); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, "layers.json")
	layers := map[string]layerShares{}
	if err := readJSON(path, &layers); err != nil {
		return err
	}
	layers[w.name] = d.layers
	return writeJSON(path, layers)
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// result is the final line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as -out files keep it, for compare.
type runRecord struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Traced     bool                  `json:"traced"`
	Correct    bool                  `json:"correct"`
	Reps       int                   `json:"reps"`
	HostFactor float64               `json:"host_factor"` // raw = normalised × factor^calibElasticity
	Metrics    map[string]metricStat `json:"metrics"`
}

type metricStat struct {
	Value float64 `json:"value"` // median over the run's repetitions
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func appendRun(path string, rec runRecord) error {
	var f resultsFile
	if err := readJSON(path, &f); err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	return writeJSON(path, f)
}
